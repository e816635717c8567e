// FunctionRef<Sig>: non-owning, trivially copyable callable reference.
//
// Type erasure for callables that cross a non-template boundary, at the
// cost of one indirect call and no allocation (std::function may allocate
// and is slower to invoke). The enumerators never erase their visitor: it
// is a template parameter, compiled into the per-state loop. ParaMount's
// offline driver erases "enumerate this box" once per interval
// (core/paramount.hpp), and the predicate detectors take their predicates
// this way. The referenced callable must outlive the FunctionRef; all uses
// in this codebase pass stack lambdas downward.
#pragma once

#include <type_traits>
#include <utility>

namespace paramount {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(&f))),
        invoke_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*invoke_)(void*, Args...);
};

}  // namespace paramount
