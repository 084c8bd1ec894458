# Run one command-line invocation and require a given exit code and a given
# substring of stderr.  Driven by ctest:
#
#   cmake -DEXE=<binary> "-DARGS=<space-separated args>" -DEXPECT_CODE=2
#         "-DEXPECT_STDERR=<substring>" -P expect_exit.cmake
#
# With -DEXPECT_CSV=<file> -DEXPECT_CSV_ROWS=<n>, the file (removed before the
# run) must also exist afterwards with a header line and exactly n data rows.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED EXPECT_CSV)
  file(REMOVE "${EXPECT_CSV}")
endif()
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
if(DEFINED EXPECT_CSV)
  if(NOT EXISTS "${EXPECT_CSV}")
    message(FATAL_ERROR "'${EXE} ${ARGS}' wrote no ${EXPECT_CSV}")
  endif()
  file(STRINGS "${EXPECT_CSV}" lines)
  list(LENGTH lines count)
  math(EXPR rows "${count} - 1")
  if(NOT rows EQUAL EXPECT_CSV_ROWS)
    message(FATAL_ERROR "${EXPECT_CSV} has ${rows} data rows, expected ${EXPECT_CSV_ROWS}")
  endif()
endif()
