# Deterministic check of bench_check's decide-parallel gate logic: the
# committed fixtures under tests/data/bench_check carry hand-written
# decide_parallel_scaling curves, so the floor's fail path is exercised
# without measuring anything. Every case runs bench_check with its default
# budgets (--min-decide-parallel-speedup=2) against baseline.json, whose
# leap rates every fixture repeats, so only the decide curve decides the
# exit code:
#   - a jobs=4 row at 1.5x fails the floor (exit 1);
#   - a jobs=4 row at 2.5x passes (exit 0);
#   - a single-point curve passes vacuously with the WARNING banner;
#   - a malformed row (non-positive p99, a first row other than jobs=1,
#     jobs not ascending) is rejected in either file (exit 2).
#
# Invoked by ctest (see tests/CMakeLists.txt) with:
#   -DBENCH_CHECK=<bench_check binary> -DFIXTURES=<tests/data/bench_check>
#   -DWORK_DIR=<scratch dir>
foreach(var BENCH_CHECK FIXTURES WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_check_gate.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Run bench_check on <baseline> <candidate> (fixture names), require exit
# <code>, and require <text> (if non-empty) in its combined output.
function(expect_bench_check name baseline candidate code text)
  set(verdict "${WORK_DIR}/${name}.verdict.json")
  execute_process(
    COMMAND "${BENCH_CHECK}" "${FIXTURES}/${baseline}" "${FIXTURES}/${candidate}"
            --out=${verdict}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE actual)
  if(NOT actual EQUAL code)
    message(FATAL_ERROR "${name}: bench_check exited ${actual}, expected "
                        "${code}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT text STREQUAL "")
    string(FIND "${out}${err}" "${text}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${name}: output lacks \"${text}\"\n"
                          "stdout:\n${out}\nstderr:\n${err}")
    endif()
  endif()
  if(NOT EXISTS "${verdict}")
    message(FATAL_ERROR "${name}: no verdict written to ${verdict}")
  endif()
  message(STATUS "${name}: exit ${actual} as expected")
endfunction()

expect_bench_check(below_floor baseline.json below_floor.json 1
  "FAIL: candidate decide_parallel_scaling jobs=4 speedup 1.50x < 2.00x floor")
file(READ "${WORK_DIR}/below_floor.verdict.json" verdict)
string(FIND "${verdict}" "intra-quantum decide parallel speedup below floor"
       at)
if(at EQUAL -1)
  message(FATAL_ERROR "below_floor: verdict lacks the floor reason:\n"
                      "${verdict}")
endif()

expect_bench_check(above_floor baseline.json above_floor.json 0
  "candidate: decide jobs=4: wall decide p99 2.50x serial (floor 2.00x)")
expect_bench_check(single_point baseline.json single_point.json 0
  "WARNING: candidate \"decide_parallel_scaling\" has 1 point(s).")

expect_bench_check(malformed_p99 baseline.json malformed_p99.json 2
  "malformed decide_parallel_scaling row")
expect_bench_check(malformed_first_row baseline.json malformed_first_row.json
  2 "must start at the serial jobs=1 row")
expect_bench_check(malformed_order baseline.json malformed_order.json 2
  "jobs must strictly ascend")
expect_bench_check(malformed_baseline malformed_p99.json above_floor.json 2
  "malformed decide_parallel_scaling row")

message(STATUS "bench_check gate logic passed in ${WORK_DIR}")
