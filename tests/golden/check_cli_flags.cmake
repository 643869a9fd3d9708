# halo_cli flag and output checks (ctest: cli_flags).
#
# Four promises the CLI makes that no unit test sees:
#   1. --out fails loudly: a write that hits ENOSPC (/dev/full) must exit
#      non-zero instead of reporting "wrote ...";
#   2. the setup flags (--chunk-size, ...) are usage errors on commands
#      that build no benchmark setup, instead of being parsed and dropped;
#   3. plot honours the setup flags: --affinity-distance 8 must change
#      what it prints;
#   4. serve rejects an unusable --store-dir before binding its socket,
#      so the failure leaves no socket file to block the next serve;
#   5. --trials, --machine and --jobs are usage errors on the commands
#      that would parse and drop them (machines, store, trace, serve's
#      --trials/--machine, client's --jobs, client stats' --trials).
#
# Invoked as:
#   cmake -DHALO_CLI=<path> -DWORK_DIR=<dir> -P this_file

foreach(Var HALO_CLI WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "check_cli_flags.cmake needs -D${Var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

# 1. A full device: every write fails with ENOSPC once the buffer flushes.
if(EXISTS /dev/full)
  execute_process(COMMAND ${HALO_CLI} run health --trials 1 --out /dev/full
                  OUTPUT_VARIABLE Out ERROR_VARIABLE Err RESULT_VARIABLE Rc)
  if(Rc EQUAL 0)
    message(FATAL_ERROR
            "halo_cli run --out /dev/full exited 0 (stdout: ${Out})")
  endif()
endif()

# 2. machines builds no setup, so --chunk-size is a usage error.
execute_process(COMMAND ${HALO_CLI} machines --chunk-size 4096
                OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Rc)
if(Rc EQUAL 0)
  message(FATAL_ERROR "halo_cli machines --chunk-size 4096 exited 0")
endif()

# 3. plot with and without a setup flag must print different bars.
foreach(Variant default distance8)
  set(Args plot health --trials 1)
  if(Variant STREQUAL "distance8")
    list(APPEND Args --affinity-distance 8)
  endif()
  execute_process(COMMAND ${HALO_CLI} ${Args}
                  OUTPUT_FILE ${WORK_DIR}/plot_${Variant}.txt
                  RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "halo_cli ${Args} failed (exit ${Rc})")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/plot_default.txt
                        ${WORK_DIR}/plot_distance8.txt
                RESULT_VARIABLE Same)
if(Same EQUAL 0)
  message(FATAL_ERROR
          "halo_cli plot ignored --affinity-distance 8: its output equals "
          "the default run's")
endif()

# 4. A regular file is no store. The timeout only matters if serve
#    wrongly starts serving; it then leaves its socket, which fails below.
file(WRITE ${WORK_DIR}/not_a_store "")
set(Sock ${WORK_DIR}/serve.sock)
file(REMOVE ${Sock})
execute_process(COMMAND ${HALO_CLI} serve --socket ${Sock}
                        --store-dir ${WORK_DIR}/not_a_store
                OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE Rc TIMEOUT 30)
if(Rc EQUAL 0)
  message(FATAL_ERROR "halo_cli serve with a regular file as --store-dir "
                      "exited 0")
endif()
if(EXISTS ${Sock})
  message(FATAL_ERROR "halo_cli serve with a regular file as --store-dir "
                      "left its socket file ${Sock} behind")
endif()

# 5. A usage error exits 1 and names the flag. The timeout only matters
#    if a command wrongly runs instead: serve would start serving, and a
#    client would fail to connect (exit 1, but without the flag's name).
function(expect_usage_error Flag)
  execute_process(COMMAND ${HALO_CLI} ${ARGN}
                  OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Rc
                  TIMEOUT 20)
  if(NOT Rc EQUAL 1 OR NOT Err MATCHES "error: ${Flag} is only valid")
    message(FATAL_ERROR "halo_cli ${ARGN}: expected a usage error naming "
                        "${Flag}, got exit ${Rc} (stderr: ${Err})")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK_DIR}/store)
expect_usage_error(--trials machines --trials 5)
expect_usage_error(--machine machines --machine mobile)
expect_usage_error(--jobs machines --jobs 3)
expect_usage_error(--trials store ls --trials 4 --store-dir ${WORK_DIR}/store)
expect_usage_error(--trials trace health --trials 7)
expect_usage_error(--machine trace health --machine mobile)
expect_usage_error(--jobs trace health --jobs 2)
expect_usage_error(--trials serve --socket ${Sock} --trials 2)
expect_usage_error(--machine serve --socket ${Sock} --machine mobile)
expect_usage_error(--jobs client run health --socket ${Sock} --jobs 2)
expect_usage_error(--trials client stats --socket ${Sock} --trials 2)
file(REMOVE ${Sock})

message(STATUS "halo_cli flag and output checks passed")
