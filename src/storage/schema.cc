#include "storage/schema.h"

#include <bit>
#include <cstring>

namespace smoothscan {

namespace {

// Serialized integers are little-endian. On little-endian hosts (the only
// targets we build for today) a plain memcpy load/store compiles to a single
// mov — the byte-wise fallback keeps big-endian hosts correct.

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
    out->insert(out->end(), p, p + 4);
  } else {
    for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
    out->insert(out->end(), p, p + 8);
  } else {
    for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(const uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  }
}

uint64_t GetU64(const uint8_t* p) { return LoadU64LE(p); }

}  // namespace

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void Schema::Serialize(const Tuple& tuple, std::vector<uint8_t>* out) const {
  SMOOTHSCAN_CHECK(tuple.size() == columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Value& v = tuple[i];
    SMOOTHSCAN_CHECK(v.type() == columns_[i].type);
    switch (columns_[i].type) {
      case ValueType::kInt64:
      case ValueType::kDate:
        PutU64(out, static_cast<uint64_t>(v.AsInt64()));
        break;
      case ValueType::kDouble: {
        uint64_t bits;
        const double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        PutU64(out, bits);
        break;
      }
      case ValueType::kString: {
        const std::string& s = v.AsString();
        PutU32(out, static_cast<uint32_t>(s.size()));
        out->insert(out->end(), s.begin(), s.end());
        break;
      }
    }
  }
}

Tuple Schema::Deserialize(const uint8_t* data, uint32_t size) const {
  Tuple tuple;
  DeserializeInto(data, size, &tuple);
  return tuple;
}

void Schema::DeserializeVarWidthInto(const uint8_t* data, uint32_t size,
                                     Tuple* out) const {
  out->resize(columns_.size());
  uint32_t off = 0;
  size_t i = 0;
  for (const Column& col : columns_) {
    Value& slot = (*out)[i++];
    switch (col.type) {
      case ValueType::kInt64:
        SMOOTHSCAN_CHECK(off + 8 <= size);
        slot = Value::Int64(static_cast<int64_t>(GetU64(data + off)));
        off += 8;
        break;
      case ValueType::kDate:
        SMOOTHSCAN_CHECK(off + 8 <= size);
        slot = Value::Date(static_cast<int64_t>(GetU64(data + off)));
        off += 8;
        break;
      case ValueType::kDouble: {
        SMOOTHSCAN_CHECK(off + 8 <= size);
        const uint64_t bits = GetU64(data + off);
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        slot = Value::Double(d);
        off += 8;
        break;
      }
      case ValueType::kString: {
        SMOOTHSCAN_CHECK(off + 4 <= size);
        const uint32_t len = GetU32(data + off);
        off += 4;
        SMOOTHSCAN_CHECK(off + len <= size);
        slot = Value::String(
            std::string(reinterpret_cast<const char*>(data + off), len));
        off += len;
        break;
      }
    }
  }
}

Value Schema::DeserializeColumn(const uint8_t* data, uint32_t size,
                                size_t col) const {
  SMOOTHSCAN_CHECK(col < columns_.size());
  uint32_t off = 0;
  if (fixed_width_) {
    // Fast path: every column is 8 bytes, so the offset is direct — this is
    // the per-tuple key check of every scan's hot loop.
    off = static_cast<uint32_t>(col) * 8;
  } else {
    for (size_t i = 0; i < col; ++i) {
      if (smoothscan::IsFixedWidth(columns_[i].type)) {
        off += 8;
      } else {
        SMOOTHSCAN_CHECK(off + 4 <= size);
        off += 4 + GetU32(data + off);
      }
    }
  }
  switch (columns_[col].type) {
    case ValueType::kInt64:
      SMOOTHSCAN_CHECK(off + 8 <= size);
      return Value::Int64(static_cast<int64_t>(GetU64(data + off)));
    case ValueType::kDate:
      SMOOTHSCAN_CHECK(off + 8 <= size);
      return Value::Date(static_cast<int64_t>(GetU64(data + off)));
    case ValueType::kDouble: {
      SMOOTHSCAN_CHECK(off + 8 <= size);
      const uint64_t bits = GetU64(data + off);
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value::Double(d);
    }
    case ValueType::kString: {
      SMOOTHSCAN_CHECK(off + 4 <= size);
      const uint32_t len = GetU32(data + off);
      SMOOTHSCAN_CHECK(off + 4 + len <= size);
      return Value::String(
          std::string(reinterpret_cast<const char*>(data + off + 4), len));
    }
  }
  return Value();
}

uint32_t Schema::SerializedSize(const Tuple& tuple) const {
  SMOOTHSCAN_CHECK(tuple.size() == columns_.size());
  uint32_t size = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (smoothscan::IsFixedWidth(columns_[i].type)) {
      size += 8;
    } else {
      size += 4 + static_cast<uint32_t>(tuple[i].AsString().size());
    }
  }
  return size;
}

Schema MakeIntSchema(size_t num_columns) {
  std::vector<Column> cols;
  cols.reserve(num_columns);
  for (size_t i = 0; i < num_columns; ++i) {
    std::string name = "c";
    name.append(std::to_string(i + 1));
    cols.push_back({std::move(name), ValueType::kInt64});
  }
  return Schema(std::move(cols));
}

}  // namespace smoothscan
