# Run one command-line invocation and require a given exit code and a given
# substring of stderr.  Driven by ctest:
#
#   cmake -DEXE=<binary> "-DARGS=<space-separated args>" -DEXPECT_CODE=2
#         "-DEXPECT_STDERR=<substring>" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "'${EXE} ${ARGS}' exited ${code}, expected ${EXPECT_CODE}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${EXE} ${ARGS}' stderr lacks '${EXPECT_STDERR}':\n${err}")
endif()
