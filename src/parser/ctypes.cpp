#include "parser/ctypes.hpp"

#include <map>

namespace healers::parser {

namespace {

// Typedefs the simulated platform's headers may use. FILE is opaque (only
// ever used behind a pointer); the rest are scalar aliases.
const std::map<std::string, TypeClass>& typedef_table() {
  static const std::map<std::string, TypeClass> kTable = {
      {"size_t", TypeClass::kIntegral},   {"ssize_t", TypeClass::kIntegral},
      {"wchar_t", TypeClass::kIntegral},  {"wint_t", TypeClass::kIntegral},
      {"wctrans_t", TypeClass::kIntegral}, {"wctype_t", TypeClass::kIntegral},
      {"time_t", TypeClass::kIntegral},   {"ptrdiff_t", TypeClass::kIntegral},
      {"FILE", TypeClass::kVoid},  // opaque struct; meaningless by value
  };
  return kTable;
}

std::string base_to_string(const TypeExpr& type) {
  std::string out;
  if (type.pointee_const) out += "const ";
  if (type.is_unsigned) out += "unsigned ";
  switch (type.base) {
    case BaseType::kVoid: out += "void"; break;
    case BaseType::kChar: out += "char"; break;
    case BaseType::kShort: out += "short"; break;
    case BaseType::kInt: out += "int"; break;
    case BaseType::kLong: out += "long"; break;
    case BaseType::kLongLong: out += "long long"; break;
    case BaseType::kFloat: out += "float"; break;
    case BaseType::kDouble: out += "double"; break;
    case BaseType::kNamed: out += type.name; break;
  }
  return out;
}

}  // namespace

std::string_view to_string(TypeClass cls) noexcept {
  static constexpr std::string_view kNames[] = {"void", "integral", "floating", "pointer"};
  return static_cast<std::size_t>(cls) < std::size(kNames) ? kNames[static_cast<std::size_t>(cls)]
                                                            : "?";
}

TypeClass TypeExpr::classify() const noexcept {
  if (is_function_pointer || pointer_depth > 0) return TypeClass::kPointer;
  switch (base) {
    case BaseType::kVoid:
      return TypeClass::kVoid;
    case BaseType::kFloat:
    case BaseType::kDouble:
      return TypeClass::kFloating;
    case BaseType::kNamed: {
      auto it = typedef_table().find(name);
      return it == typedef_table().end() ? TypeClass::kIntegral : it->second;
    }
    default:
      return TypeClass::kIntegral;
  }
}

namespace {

std::string funcptr_params(const TypeExpr& type) {
  std::string out = "(";
  if (type.fn_params.empty()) {
    out += "void";
  } else {
    for (std::size_t i = 0; i < type.fn_params.size(); ++i) {
      if (i > 0) out += ", ";
      out += type.fn_params[i].to_string();
    }
  }
  out += ")";
  return out;
}

}  // namespace

std::string TypeExpr::to_string() const {
  if (is_function_pointer) {
    TypeExpr ret = *this;
    ret.is_function_pointer = false;
    ret.fn_params.clear();
    return ret.to_string() + " (*)" + funcptr_params(*this);
  }
  std::string out = base_to_string(*this);
  if (pointer_depth > 0) {
    out += ' ';
    out.append(static_cast<std::size_t>(pointer_depth), '*');
  }
  return out;
}

std::string TypeExpr::declare(const std::string& identifier) const {
  if (is_function_pointer) {
    TypeExpr ret = *this;
    ret.is_function_pointer = false;
    ret.fn_params.clear();
    return ret.to_string() + " (*" + identifier + ")" + funcptr_params(*this);
  }
  std::string out = base_to_string(*this);
  out += ' ';
  out.append(static_cast<std::size_t>(pointer_depth), '*');
  out += identifier;
  return out;
}

std::string FunctionProto::to_declaration() const {
  std::string out = return_type.declare(name);
  out += '(';
  if (params.empty() && !varargs) {
    out += "void";
  } else {
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i > 0) out += ", ";
      out += params[i].name.empty() ? params[i].type.to_string()
                                    : params[i].type.declare(params[i].name);
    }
    if (varargs) out += ", ...";
  }
  out += ");";
  return out;
}

TypeClass named_type_class(const std::string& name) {
  auto it = typedef_table().find(name);
  return it == typedef_table().end() ? TypeClass::kIntegral : it->second;
}

bool is_known_typedef(const std::string& name) { return typedef_table().contains(name); }

}  // namespace healers::parser
