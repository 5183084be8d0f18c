#include "util/stored_bitmap.h"

#include <utility>

namespace ebi {

StoredBitmap StoredBitmap::Make(BitVector bits, BitmapFormat format) {
  StoredBitmap out;
  switch (format) {
    case BitmapFormat::kPlain:
      out.rep_ = std::move(bits);
      break;
    case BitmapFormat::kEwah:
      out.rep_ = EwahBitmap::Compress(bits);
      break;
  }
  return out;
}

StoredBitmap StoredBitmap::FromEwah(EwahBitmap ewah) {
  StoredBitmap out;
  out.rep_ = std::move(ewah);
  return out;
}

size_t StoredBitmap::size() const {
  return std::visit([](const auto& rep) { return rep.size(); }, rep_);
}

size_t StoredBitmap::Count() const {
  return std::visit([](const auto& rep) { return rep.Count(); }, rep_);
}

size_t StoredBitmap::SizeBytes() const {
  return std::visit([](const auto& rep) { return rep.SizeBytes(); }, rep_);
}

double StoredBitmap::Sparsity() const {
  const size_t n = size();
  if (n == 0) {
    return 0.0;
  }
  return 1.0 -
         static_cast<double>(Count()) / static_cast<double>(n);
}

BitVector StoredBitmap::ToBitVector() const& {
  if (const BitVector* plain = std::get_if<BitVector>(&rep_)) {
    return *plain;
  }
  return std::get<EwahBitmap>(rep_).Decompress();
}

BitVector StoredBitmap::ToBitVector() && {
  if (BitVector* plain = std::get_if<BitVector>(&rep_)) {
    return std::move(*plain);
  }
  return std::get<EwahBitmap>(rep_).Decompress();
}

void StoredBitmap::AppendBit(bool value) {
  if (BitVector* plain = std::get_if<BitVector>(&rep_)) {
    plain->PushBack(value);
    return;
  }
  const BitmapFormat fmt = format();
  BitVector bits = ToBitVector();
  bits.PushBack(value);
  *this = Make(std::move(bits), fmt);
}

namespace {

Status FormatMismatch(const StoredBitmap& a, const StoredBitmap& b) {
  return Status::InvalidArgument(
      std::string("StoredBitmap: operand formats differ (") +
      BitmapFormatName(a.format()) + " vs " + BitmapFormatName(b.format()) +
      ")");
}

}  // namespace

Result<StoredBitmap> StoredBitmap::And(const StoredBitmap& a,
                                       const StoredBitmap& b) {
  if (a.format() != b.format()) {
    return FormatMismatch(a, b);
  }
  switch (a.format()) {
    case BitmapFormat::kPlain: {
      if (a.size() != b.size()) {
        return Status::InvalidArgument(
            "StoredBitmap::And: operand sizes differ");
      }
      BitVector out = *a.AsPlain();
      out.AndWith(*b.AsPlain());
      StoredBitmap stored;
      stored.rep_ = std::move(out);
      return stored;
    }
    case BitmapFormat::kEwah: {
      EBI_ASSIGN_OR_RETURN(
          EwahBitmap out,
          EwahBitmap::AndChecked(std::get<EwahBitmap>(a.rep_),
                                 std::get<EwahBitmap>(b.rep_)));
      StoredBitmap stored;
      stored.rep_ = std::move(out);
      return stored;
    }
  }
  return Status::Internal("unreachable bitmap format");
}

Result<StoredBitmap> StoredBitmap::Or(const StoredBitmap& a,
                                      const StoredBitmap& b) {
  if (a.format() != b.format()) {
    return FormatMismatch(a, b);
  }
  switch (a.format()) {
    case BitmapFormat::kPlain: {
      if (a.size() != b.size()) {
        return Status::InvalidArgument(
            "StoredBitmap::Or: operand sizes differ");
      }
      BitVector out = *a.AsPlain();
      out.OrWith(*b.AsPlain());
      StoredBitmap stored;
      stored.rep_ = std::move(out);
      return stored;
    }
    case BitmapFormat::kEwah: {
      EBI_ASSIGN_OR_RETURN(
          EwahBitmap out,
          EwahBitmap::OrChecked(std::get<EwahBitmap>(a.rep_),
                                std::get<EwahBitmap>(b.rep_)));
      StoredBitmap stored;
      stored.rep_ = std::move(out);
      return stored;
    }
  }
  return Status::Internal("unreachable bitmap format");
}

}  // namespace ebi
