# Runs a command and checks its exit status and output (stdout and
# stderr together), for ctests that must see a specific status: a test
# with PASS_REGULAR_EXPRESSION alone passes whatever status the command
# exits with (only a crash fails it).
#
#   cmake -DCMD="prog|arg|..." -DEXIT=2 -DMATCH=regex [-DREJECT=regex]
#         -P expect_exit.cmake
#
# CMD separates its arguments with '|'. The test fails unless the
# command exits with EXIT and its output matches MATCH, and, when REJECT
# is given, does not match REJECT.
string(REPLACE "|" ";" command "${CMD}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit status ${status}, want ${EXIT}; output:\n${output}")
endif()
if(NOT output MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${output}")
endif()
if(DEFINED REJECT AND output MATCHES "${REJECT}")
  message(FATAL_ERROR "output matches '${REJECT}':\n${output}")
endif()
