#ifndef ST4ML_TOOLS_TOOL_MAIN_H_
#define ST4ML_TOOLS_TOOL_MAIN_H_

#include <cstdio>
#include <exception>
#include <functional>
#include <string>

#include "common/status.h"

namespace st4ml {
namespace tools {

/// Shared tool entrypoint: runs `body` and converts any escaping exception
/// into a one-line stderr message and exit code 1 instead of
/// std::terminate. Status-returning stages latch their failure on the Job
/// (checked inside each tool); the value-returning Dataset transforms throw
/// StatusError, which lands here.
inline int ToolMain(const std::string& name, const std::function<int()>& body) {
  try {
    return body();
  } catch (const StatusError& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 e.status().ToString().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    return 1;
  }
}

}  // namespace tools
}  // namespace st4ml

#endif  // ST4ML_TOOLS_TOOL_MAIN_H_
