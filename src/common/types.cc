#include "common/types.h"

#include <cstdio>

namespace smoothscan {

int Value::Compare(const Value& other) const {
  SMOOTHSCAN_CHECK(type_ == other.type_);
  switch (type_) {
    case ValueType::kInt64:
    case ValueType::kDate: {
      const int64_t a = rep_.i;
      const int64_t b = other.rep_.i;
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kDouble: {
      const double a = rep_.d;
      const double b = other.rep_.d;
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kString: {
      const int cmp = rep_.s->compare(*other.rep_.s);
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kInt64:
      return std::to_string(rep_.i);
    case ValueType::kDate: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "date(%lld)",
                    static_cast<long long>(rep_.i));
      return buf;
    }
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", rep_.d);
      return buf;
    }
    case ValueType::kString:
      return *rep_.s;
  }
  return "?";
}

}  // namespace smoothscan
