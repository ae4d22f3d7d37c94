// The field-list rule of src/common/fields.h, checked by the compiler: a
// struct's Fields() must name every data member in its structured binding.
// ctest compiles this file twice with -fsyntax-only. With -DLIST_EVERY_MEMBER
// the binding names all three members and the file must compile; without it
// the binding names two of the three (a member added without being listed)
// and the compiler must reject it, on every platform and ABI.
#include <tuple>

#include "src/common/fields.h"

struct Schema {
  int listed = 0;
  double also_listed = 0.0;
  int added_later = 0;

  auto Fields() const {
#ifdef LIST_EVERY_MEMBER
    const auto& [listed, also_listed, added_later] = *this;
    return std::tie(listed, also_listed, added_later);
#else
    const auto& [listed, also_listed] = *this;
    return std::tie(listed, also_listed);
#endif
  }
};

bool SameSchema(const Schema& a, const Schema& b) { return torbase::Same(a, b); }
