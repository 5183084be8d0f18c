#include "util/bitvector.h"

#include <algorithm>
#include <cassert>

#include "util/kernels/kernels.h"

namespace ebi {

namespace {
constexpr size_t WordsFor(size_t bits) { return (bits + 63) / 64; }

const kernels::BitmapKernels& K() { return kernels::Active(); }
}  // namespace

BitVector::BitVector(size_t size, bool value)
    : size_(size), words_(WordsFor(size), value ? ~uint64_t{0} : 0) {
  MaskTail();
}

BitVector BitVector::FromString(const std::string& bits) {
  BitVector v(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      v.Set(i);
    } else if (bits[i] != '0') {
      return BitVector();
    }
  }
  return v;
}

BitVector BitVector::FromWords(size_t size, std::vector<uint64_t> words) {
  BitVector v;
  v.size_ = size;
  words.resize(WordsFor(size), 0);
  v.words_ = std::move(words);
  v.MaskTail();
  v.DebugCheckTail();
  return v;
}

void BitVector::Resize(size_t size) {
  size_ = size;
  words_.resize(WordsFor(size), 0);
  MaskTail();
  DebugCheckTail();
}

void BitVector::PushBack(bool value) {
  const size_t i = size_;
  ++size_;
  if (WordsFor(size_) > words_.size()) {
    words_.push_back(0);
  }
  if (value) {
    Set(i);
  }
}

void BitVector::Clear() {
  K().fill_words(words_.data(), 0, words_.size());
}

void BitVector::SetAll() {
  K().fill_words(words_.data(), ~uint64_t{0}, words_.size());
  MaskTail();
  DebugCheckTail();
}

size_t BitVector::Count() const {
  return K().popcount_words(words_.data(), words_.size());
}

bool BitVector::IsZero() const {
  // Scalar on purpose: the early exit on the first non-zero word beats a
  // full-span kernel pass for the common "hit in the first words" case.
  for (uint64_t w : words_) {
    if (w != 0) {
      return false;
    }
  }
  return true;
}

double BitVector::Sparsity() const {
  if (size_ == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(Count()) / static_cast<double>(size_);
}

BitVector& BitVector::AndWith(const BitVector& other) {
  assert(size_ == other.size_ && "AndWith operand size mismatch");
  const size_t shared = std::min(words_.size(), other.words_.size());
  K().and_words(words_.data(), other.words_.data(), shared);
  // Zero-extension of a shorter operand: the words it lacks AND to zero.
  K().fill_words(words_.data() + shared, 0, words_.size() - shared);
  DebugCheckTail();
  return *this;
}

BitVector& BitVector::OrWith(const BitVector& other) {
  assert(size_ == other.size_ && "OrWith operand size mismatch");
  const size_t shared = std::min(words_.size(), other.words_.size());
  K().or_words(words_.data(), other.words_.data(), shared);
  // A longer operand legitimately carries set bits inside this vector's
  // padding range of the shared last word; without this mask they would
  // silently corrupt Count()/ForEachSetBit (the tail-word hygiene bug).
  MaskTail();
  DebugCheckTail();
  return *this;
}

BitVector& BitVector::XorWith(const BitVector& other) {
  assert(size_ == other.size_ && "XorWith operand size mismatch");
  const size_t shared = std::min(words_.size(), other.words_.size());
  K().xor_words(words_.data(), other.words_.data(), shared);
  // Same padding hazard as OrWith: XOR with a longer operand can flip
  // bits above size().
  MaskTail();
  DebugCheckTail();
  return *this;
}

BitVector& BitVector::FlipAll() {
  K().not_words(words_.data(), words_.size());
  MaskTail();
  DebugCheckTail();
  return *this;
}

BitVector& BitVector::AndNotWith(const BitVector& other) {
  assert(size_ == other.size_ && "AndNotWith operand size mismatch");
  const size_t shared = std::min(words_.size(), other.words_.size());
  K().andnot_words(words_.data(), other.words_.data(), shared);
  // AND-NOT can only clear bits, but keep the op self-certifying: a
  // pre-existing dirty tail must not survive a mutating call unnoticed.
  MaskTail();
  DebugCheckTail();
  return *this;
}

BitVector& BitVector::OrWithMany(
    const std::vector<const BitVector*>& operands) {
  // Equal-word-count operands merge in one fused pass (this vector rides
  // along as srcs[0]); ragged ones take the binary zero-extension path.
  std::vector<const uint64_t*> srcs;
  srcs.reserve(operands.size() + 1);
  srcs.push_back(words_.data());
  for (const BitVector* operand : operands) {
    assert(operand != nullptr && "OrWithMany null operand");
    assert(operand->size_ == size_ && "OrWithMany operand size mismatch");
    if (operand->words_.size() == words_.size()) {
      srcs.push_back(operand->words_.data());
    }
  }
  if (srcs.size() > 1) {
    K().or_many(words_.data(), srcs.data(), srcs.size(), words_.size());
  }
  for (const BitVector* operand : operands) {
    if (operand->words_.size() != words_.size()) {
      OrWith(*operand);
    }
  }
  MaskTail();
  DebugCheckTail();
  return *this;
}

BitVector& BitVector::AndWithMany(
    const std::vector<const BitVector*>& operands) {
  std::vector<const uint64_t*> srcs;
  srcs.reserve(operands.size() + 1);
  srcs.push_back(words_.data());
  for (const BitVector* operand : operands) {
    assert(operand != nullptr && "AndWithMany null operand");
    assert(operand->size_ == size_ && "AndWithMany operand size mismatch");
    if (operand->words_.size() == words_.size()) {
      srcs.push_back(operand->words_.data());
    }
  }
  if (srcs.size() > 1) {
    K().and_many(words_.data(), srcs.data(), srcs.size(), words_.size());
  }
  for (const BitVector* operand : operands) {
    if (operand->words_.size() != words_.size()) {
      AndWith(*operand);
    }
  }
  MaskTail();
  DebugCheckTail();
  return *this;
}

void BitVector::SetWordRange(size_t first, const uint64_t* words,
                             size_t count) {
  assert(first + count <= words_.size() && "SetWordRange out of bounds");
  if (first >= words_.size()) {
    return;
  }
  count = std::min(count, words_.size() - first);
  K().copy_words(words_.data() + first, words, count);
  if (first + count == words_.size()) {
    MaskTail();
  }
  DebugCheckTail();
}

bool BitVector::TailIsClean() const {
  if (words_.empty()) {
    return true;
  }
  const size_t tail = size_ & 63;
  if (tail == 0) {
    return true;
  }
  return (words_.back() & ~((uint64_t{1} << tail) - 1)) == 0;
}

std::vector<uint32_t> BitVector::ToPositions() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  ForEachSetBit([&out](size_t i) { out.push_back(static_cast<uint32_t>(i)); });
  return out;
}

std::string BitVector::ToString() const {
  std::string out(size_, '0');
  ForEachSetBit([&out](size_t i) { out[i] = '1'; });
  return out;
}

void BitVector::MaskTail() {
  const size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

void BitVector::DebugCheckTail() const {
  assert(TailIsClean() && "padding bits above size() must stay zero");
}

BitVector And(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.AndWith(b);
  return out;
}

BitVector Or(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.OrWith(b);
  return out;
}

BitVector Xor(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.XorWith(b);
  return out;
}

BitVector Not(const BitVector& a) {
  BitVector out = a;
  out.FlipAll();
  return out;
}

}  // namespace ebi
