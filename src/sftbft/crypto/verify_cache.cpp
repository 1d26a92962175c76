#include "sftbft/crypto/verify_cache.hpp"

#include "sftbft/crypto/signature.hpp"
#include "sftbft/obs/observer.hpp"

namespace sftbft::crypto {

bool VerifyCache::verify(const KeyRegistry& registry, const Signature& sig,
                         BytesView message) {
  count_macs(1);
  return registry.verify(sig, message);
}

void VerifyCache::count_duplicate_vote() {
  ++vote_hits_;
  if (obs_ != nullptr) {
    obs_->count(replica_, obs::Counter::kVoteVerifyHits);
  }
}

bool VerifyCache::seen_cert(const Sha256Digest& key) {
  const bool hit = certs_.contains(key);
  bump_cert(hit);
  return hit;
}

void VerifyCache::note_cert(const Sha256Digest& key, std::size_t members,
                            bool ok) {
  count_macs(members);
  if (!ok) return;
  if (certs_.size() >= kMaxEntries) certs_.clear();
  certs_.insert(key);
}

void VerifyCache::count_macs(std::size_t count) {
  vote_misses_ += count;
  if (obs_ != nullptr) {
    obs_->count(replica_, obs::Counter::kVoteVerifyMisses, count);
  }
}

void VerifyCache::bump_cert(bool hit) {
  if (hit) {
    ++cert_hits_;
  } else {
    ++cert_misses_;
  }
  if (obs_ != nullptr) {
    obs_->count(replica_, hit ? obs::Counter::kCertVerifyHits
                              : obs::Counter::kCertVerifyMisses);
  }
}

}  // namespace sftbft::crypto
