#include "sftbft/crypto/verify_cache.hpp"

#include "sftbft/crypto/signature.hpp"
#include "sftbft/obs/observer.hpp"

namespace sftbft::crypto {

bool VerifyCache::verify(const KeyRegistry& registry, const Signature& sig,
                         BytesView message) {
  if (obs_ != nullptr) obs_->count(replica_, obs::Counter::kVoteVerifyMisses);
  return registry.verify(sig, message);
}

void VerifyCache::count_duplicate_vote() {
  if (obs_ != nullptr) obs_->count(replica_, obs::Counter::kVoteVerifyHits);
}

void VerifyCache::count_cert(std::size_t members) {
  if (obs_ == nullptr) return;
  obs_->count(replica_, obs::Counter::kCertVerifyMisses);
  obs_->count(replica_, obs::Counter::kVoteVerifyMisses, members);
}

}  // namespace sftbft::crypto
