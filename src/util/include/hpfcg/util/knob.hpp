#pragma once
// One runtime switch type for every opt-in layer.
//
// Each layer (check, trace, race, repro, the halo executor) is gated at two
// levels:
//   compile time — a CMake option defines HPFCG_<LAYER>_ENABLED and the
//     layer's `kCompiled` constant; a getter written `kCompiled && knob.get()`
//     folds to a constant when the option is OFF, so the hooks vanish and the
//     environment variable is never read;
//   run time — a Knob: an environment variable parsed strictly on first use,
//     falling back to a default when unset, which tests and benches override
//     in-process with a ScopedKnob.
//
// Bad values are errors, not silent fallbacks: `HPFCG_HALO=banana` or
// `HPFCG_CHECK_TIMEOUT_MS=5s` throw util::Error naming the variable and the
// value at the first read.

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "hpfcg/util/error.hpp"
#include "hpfcg/util/str.hpp"

namespace hpfcg::util {

namespace detail {
[[noreturn]] inline void bad_knob(std::string_view name, std::string_view text,
                                  const std::string& expected) {
  throw Error("hpfcg: bad value " + std::string(name) + "=\"" +
              std::string(text) + "\": expected " + expected);
}
}  // namespace detail

/// Strictly parses `text`, the value of environment variable `name`.
/// bool: case-insensitive 1/on/true/yes or 0/off/false/no.  Integers: the
/// whole string as a base-10 number no smaller than `min` — no whitespace,
/// no suffix, no sign on unsigned types.  Anything else throws Error naming
/// the variable and the value.
template <typename T>
[[nodiscard]] T parse_knob(std::string_view name, std::string_view text,
                           T min = std::numeric_limits<T>::lowest()) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::string v = to_lower(std::string(text));
    if (v == "1" || v == "on" || v == "true" || v == "yes") return true;
    if (v == "0" || v == "off" || v == "false" || v == "no") return false;
    detail::bad_knob(name, text, "1/on/true/yes or 0/off/false/no");
  } else {
    static_assert(std::is_integral_v<T>, "a knob is a bool or an integer");
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || value < min) {
      detail::bad_knob(name, text, "an integer >= " + std::to_string(min));
    }
    return value;
  }
}

/// A runtime switch: environment variable `env`, parsed by parse_knob on the
/// first get() (`fallback` when unset), held in an atomic that a ScopedKnob
/// overrides.  Constant-initializable, so a namespace-scope `inline
/// constinit` knob has no static-initialization order and reads no
/// environment before main().
template <typename T>
class Knob {
 public:
  using value_type = T;

  constexpr Knob(const char* env, T fallback,
                 T min = std::numeric_limits<T>::lowest())
      : env_(env), min_(min), value_(fallback) {}

  /// The current value.  A bad environment value throws here, on every call
  /// until it is fixed.
  [[nodiscard]] T get() {
    if (!loaded_.load(std::memory_order_acquire)) load();
    return value_.load(std::memory_order_relaxed);
  }

 private:
  template <auto& K>
  friend class ScopedKnob;

  void load() {
    // The lock keeps a first parse on one thread from overwriting a
    // ScopedKnob installed on another after that thread's own parse.
    const std::lock_guard<std::mutex> lock(mu_);
    if (loaded_.load(std::memory_order_relaxed)) return;
    if (const char* text = std::getenv(env_)) {
      value_.store(parse_knob<T>(env_, text, min_), std::memory_order_relaxed);
    }
    loaded_.store(true, std::memory_order_release);
  }

  void set(T v) {
    HPFCG_REQUIRE(!(v < min_), std::string(env_) + " override below minimum");
    value_.store(v, std::memory_order_relaxed);
  }

  const char* env_;
  T min_;
  std::mutex mu_;
  std::atomic<bool> loaded_{false};
  std::atomic<T> value_;
};

/// RAII override of knob `K` for tests and benches: sets it for the scope
/// and restores the previous value on exit, exceptions included.  A bool
/// knob's override defaults to on.
template <auto& K>
class ScopedKnob {
  using T = typename std::remove_reference_t<decltype(K)>::value_type;

 public:
  explicit ScopedKnob(T value) : prev_(K.get()) { K.set(value); }
  ScopedKnob()
    requires std::is_same_v<T, bool>
      : ScopedKnob(true) {}
  ScopedKnob(const ScopedKnob&) = delete;
  ScopedKnob& operator=(const ScopedKnob&) = delete;
  ~ScopedKnob() { K.set(prev_); }

 private:
  T prev_;
};

}  // namespace hpfcg::util
