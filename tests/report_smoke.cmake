# End-to-end smoke for the run ledger, driven as a ctest (see
# tests/CMakeLists.txt). Exercises the real irmc_report binary:
#
#   1. `record` at IRMC_THREADS=1/2/8 appends byte-identical ledgers
#      under IRMC_LEDGER_DETERMINISTIC (the determinism contract holds
#      for whole files, not just individual exports),
#   2. self-`regress` exits 0 (a build compared with itself can never
#      read as a regression),
#   3. a planted 2x latency scale makes `regress` exit 1 and name the
#      regressed series metric, and so does a planted collapse of every
#      series cell to 0.0 (no completions),
#   4. `html` renders a single self-contained file (no external refs).
#
# Inputs: -DIRMC_REPORT=<binary> -DWORK=<scratch dir>.

if(NOT DEFINED IRMC_REPORT OR NOT DEFINED WORK)
  message(FATAL_ERROR "usage: cmake -DIRMC_REPORT=... -DWORK=... -P report_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Small but real panel: 2 sizes x 4 schemes x 2 topologies x 1 sample.
set(KNOBS record --name smoke --switches 8 --sizes 2,4
          --topologies 2 --samples 1 --seed 1)

function(run_report rc_expected out_var)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env IRMC_LEDGER_DETERMINISTIC=1 ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${rc_expected})
    message(FATAL_ERROR "expected exit ${rc_expected}, got ${rc} from: "
                        "${ARGN}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}\n${err}" PARENT_SCOPE)
endfunction()

# 1. Byte-identical ledgers for any thread count.
foreach(t 1 2 8)
  run_report(0 out IRMC_THREADS=${t} ${IRMC_REPORT} ${KNOBS}
             --ledger ${WORK}/ledger_t${t}.jsonl)
endforeach()
foreach(t 2 8)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK}/ledger_t1.jsonl ${WORK}/ledger_t${t}.jsonl
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "ledger differs between IRMC_THREADS=1 and ${t}")
  endif()
endforeach()

# 2. Self-regress is clean.
run_report(0 out ${IRMC_REPORT} regress
           --baseline ${WORK}/ledger_t1.jsonl
           --candidate ${WORK}/ledger_t2.jsonl)
if(NOT out MATCHES "no significant regressions")
  message(FATAL_ERROR "self-regress did not report clean:\n${out}")
endif()

# 3. Planted 2x slowdown: exit 1, regressed series metric named.
run_report(0 out ${IRMC_REPORT} ${KNOBS} --scale-latency 2.0
           --ledger ${WORK}/ledger_slow.jsonl)
run_report(1 out ${IRMC_REPORT} regress
           --baseline ${WORK}/ledger_t1.jsonl
           --candidate ${WORK}/ledger_slow.jsonl)
if(NOT out MATCHES "REGRESSION" OR NOT out MATCHES "series\\.")
  message(FATAL_ERROR "planted regression not named:\n${out}")
endif()

# Planted collapse: a 0.0 cell means no completions, so scaling every
# cell to 0.0 is a regression, not a speedup.
run_report(0 out ${IRMC_REPORT} ${KNOBS} --scale-latency 0.0
           --ledger ${WORK}/ledger_none.jsonl)
run_report(1 out ${IRMC_REPORT} regress
           --baseline ${WORK}/ledger_t1.jsonl
           --candidate ${WORK}/ledger_none.jsonl)
if(NOT out MATCHES "REGRESSION" OR NOT out MATCHES "series\\.")
  message(FATAL_ERROR "planted collapse not named:\n${out}")
endif()

# 4. Self-contained HTML from the recorded ledger.
run_report(0 out ${IRMC_REPORT} html
           --ledger ${WORK}/ledger_t1.jsonl --out ${WORK}/report.html)
file(READ ${WORK}/report.html html)
string(LENGTH "${html}" html_len)
if(html_len LESS 1000)
  message(FATAL_ERROR "report.html suspiciously small (${html_len} bytes)")
endif()
foreach(banned "http://" "https://" "src=" "href=")
  string(FIND "${html}" "${banned}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "report.html contains external reference '${banned}'")
  endif()
endforeach()
foreach(required "tree-worm" "mcast_size" "<svg" "</html>")
  string(FIND "${html}" "${required}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "report.html missing '${required}'")
  endif()
endforeach()

message(STATUS "report ledger smoke passed")
