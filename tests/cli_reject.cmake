# Runs one binary that must refuse its arguments: it has to exit with status
# 2 and print a line matching MESSAGE on stderr.
#
#   cmake -DBIN=<binary> -DARGS="<space-separated flags>" -DMESSAGE=<regex>
#         -P cli_reject.cmake
separate_arguments(bin_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BIN}" ${bin_args}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}, expected 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${MESSAGE}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not match '${MESSAGE}'\n"
                      "stderr: ${err}")
endif()
