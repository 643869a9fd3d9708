# Golden byte-identity check for `halo_cli run` (ctest: golden_run_json).
#
# The simulator is deterministic, so the full run JSON on the default
# machine is a fixed byte string; tests/golden/run_health.json pins it.
# Any refactor that claims "no behaviour change" must keep the
# machine-less invocation, the explicit --machine xeon-w2195 spelling, and
# the --jobs 1 / --jobs 4 spellings byte-identical to the committed golden
# (the worker count only moves work between threads).
#
# Invoked as:
#   cmake -DHALO_CLI=<path> -DGOLDEN=<path> -DWORK_DIR=<dir> -P this_file

foreach(Var HALO_CLI GOLDEN WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "check_run_golden.cmake needs -D${Var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

foreach(Spelling "default" "named" "jobs1" "jobs4")
  if(Spelling STREQUAL "default")
    set(Args run health --trials 2)
  elseif(Spelling STREQUAL "named")
    set(Args run health --trials 2 --machine xeon-w2195)
  elseif(Spelling STREQUAL "jobs1")
    set(Args run health --trials 2 --jobs 1)
  else()
    set(Args run health --trials 2 --jobs 4)
  endif()
  set(Out ${WORK_DIR}/run_health_${Spelling}.json)
  execute_process(COMMAND ${HALO_CLI} ${Args}
                  OUTPUT_FILE ${Out}
                  RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "halo_cli ${Args} failed (exit ${Rc})")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${Out} ${GOLDEN}
                  RESULT_VARIABLE Diff)
  if(NOT Diff EQUAL 0)
    message(FATAL_ERROR
            "halo_cli ${Args} JSON differs from ${GOLDEN}; the default "
            "machine's output must stay byte-identical (see "
            ".claude/skills/verify/SKILL.md for the golden recipe)")
  endif()
endforeach()

message(STATUS "halo_cli run JSON matches the committed golden")
