# Runs one paper-figure bench and compares the sha256 of its stdout with a
# committed digest. On a mismatch it prints the actual digest and a diff
# against the committed expected output, then fails.
#
#   cmake -DBENCH=<binary> -DARGS="<space-separated flags>" -DSHA256=<hex>
#         -DEXPECTED=<committed stdout> -DACTUAL=<where to write stdout>
#         -P paper_figure.cmake
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(
  COMMAND "${BENCH}" ${bench_args}
  OUTPUT_FILE "${ACTUAL}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()
file(SHA256 "${ACTUAL}" actual_sha256)
if(NOT actual_sha256 STREQUAL SHA256)
  execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
  message(FATAL_ERROR
    "stdout of ${BENCH} ${ARGS} changed\n"
    "  actual digest:   ${actual_sha256}\n"
    "  expected digest: ${SHA256}\n"
    "  expected output: ${EXPECTED}\n"
    "  actual output:   ${ACTUAL}")
endif()
