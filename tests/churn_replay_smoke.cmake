# End-to-end churn smoke: a fault plan's churn arrivals reach a dike_run
# checkpointed run (its report lists more processes than the base workload
# has), and resuming from the rolling checkpoint reproduces that report
# byte for byte.
#
# Invoked by ctest (see tests/CMakeLists.txt) with:
#   -DDIKE_RUN=<dike_run binary> -DCONFIG=<churn_smoke.json>
#   -DBASE_PROCESSES=<processes of the config's base workload>
#   -DWORK_DIR=<scratch dir>
foreach(var DIKE_RUN CONFIG BASE_PROCESSES WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "churn_replay_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(CKPT "${WORK_DIR}/churn.ckpt")
set(FULL "${WORK_DIR}/full.json")
set(RESUMED "${WORK_DIR}/resumed.json")

function(run_step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    list(JOIN ARGN " " pretty)
    message(FATAL_ERROR "step failed (exit ${code}): ${pretty}")
  endif()
endfunction()

run_step("${DIKE_RUN}" "${CONFIG}"
         --checkpoint-out "${CKPT}" --checkpoint-every 2 --json "${FULL}")
foreach(artifact CKPT FULL)
  if(NOT EXISTS "${${artifact}}")
    message(FATAL_ERROR "dike_run did not write ${${artifact}}")
  endif()
endforeach()

# One "processId" key per process in the report (string(JSON) needs a newer
# CMake than the project's minimum).
file(READ "${FULL}" report)
string(REGEX MATCHALL "\"processId\"" ids "${report}")
list(LENGTH ids processes)
if(NOT processes GREATER BASE_PROCESSES)
  message(FATAL_ERROR "churn run reports ${processes} processes; the base "
                      "workload alone has ${BASE_PROCESSES}")
endif()

run_step("${DIKE_RUN}" --resume-from "${CKPT}" --json "${RESUMED}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${FULL}" "${RESUMED}"
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "resumed churn run report differs from the uninterrupted run")
endif()

message(STATUS "churn replay smoke passed in ${WORK_DIR} (${processes} processes)")
