// One error boundary for every executable's main().
//
//     int main(int argc, char** argv) {
//       return coolpim::run_main([&] { ...; return 0; });
//     }
//
// A ConfigError -- a malformed flag, positional argument or environment
// value, or a configuration the run rejects -- prints "error: <what>" and
// exits 2.  Any other coolpim::Error exits 1.  Nothing else is caught, so a
// genuine bug still aborts loudly instead of passing for a user error.
#pragma once

#include <iostream>

#include "common/error.hpp"

namespace coolpim {

template <typename Body>
int run_main(Body&& body) {
  try {
    return body();
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace coolpim
