# halo_cli flag and output checks (ctest: cli_flags).
#
# Five promises the CLI makes that no unit test sees:
#   1. --out fails loudly: a write that hits ENOSPC (/dev/full) must exit
#      non-zero instead of reporting "wrote ...";
#   2. plot honours the setup flags: --affinity-distance 8 must change
#      what it prints;
#   3. serve rejects an unusable --store-dir before binding its socket,
#      so the failure leaves no socket file to block the next serve;
#   4. every command accepts exactly the flags and positionals of its
#      row: for each row and each flag the row does not list, the command
#      exits 1 with a usage error naming that flag (so no command parses
#      a flag only to drop it), and a positional the row has no room for
#      (a second benchmark, or any benchmark for a command that takes
#      none) exits 1 with a usage error too;
#   5. `store ls --out` writes valid JSON whatever the store directory
#      holds, and a file whose entry header does not decode is not listed
#      as a trace;
#   6. a value the run could not honour fails before anything is opened:
#      a --chunk-size outside the group allocator's range (the error
#      names the range) and a --trials above the wire's bound exit 1
#      naming the flag and leave neither the --out file nor its .tmp; a
#      command that throws after opening --out (a malformed HALO_JOBS)
#      removes its .tmp, and a valid extreme chunk size runs.
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

# 2. plot with and without a setup flag must print different bars.
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

# 3. A regular file is no store. The timeout only matters if serve
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

# 4. The accept matrix. Each row passes the command's required arguments
#    (and `health` wherever benchmarks are allowed), so the flag under test
#    is the only error. The timeout only matters if a command wrongly runs
#    instead: serve would start serving, and a client would fail to
#    connect (exit 1, but without the flag's name).
set(Store ${WORK_DIR}/store)
file(MAKE_DIRECTORY ${Store})
set(AllFlags --trials --jobs --machine --machines --kinds --scale --seed-base
             --out --store-dir --socket --chunk-size --max-spare-chunks
             --max-groups --affinity-distance)
set(Value--trials 2)
set(Value--jobs 2)
set(Value--machine mobile)
set(Value--machines mobile)
set(Value--kinds halo)
set(Value--scale test)
set(Value--seed-base 5)
set(Value--out ${WORK_DIR}/matrix_out.json)
set(Value--store-dir ${Store})
set(Value--socket ${Sock})
set(Value--chunk-size 65536)
set(Value--max-spare-chunks 2)
set(Value--max-groups 4)
set(Value--affinity-distance 8)
set(Failures "")

# expect_rejects(<accepted flags> <command and required arguments>...)
function(expect_rejects Accepted)
  foreach(Flag IN LISTS AllFlags)
    list(FIND Accepted ${Flag} Found)
    if(Found GREATER -1)
      continue()
    endif()
    execute_process(COMMAND ${HALO_CLI} ${ARGN} ${Flag} ${Value${Flag}}
                    OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Rc
                    TIMEOUT 10)
    if(NOT Rc EQUAL 1 OR NOT Err MATCHES "error: [^\n]*${Flag}")
      list(JOIN ARGN " " Command)
      string(REGEX REPLACE "[\n;]" " " Err "${Err}")
      list(APPEND Failures "halo_cli ${Command} ${Flag}: exit ${Rc}, stderr: ${Err}")
    endif()
  endforeach()
  set(Failures "${Failures}" PARENT_SCOPE)
endfunction()

# expect_positional_error(<command line with one positional too many>...)
function(expect_positional_error)
  execute_process(COMMAND ${HALO_CLI} ${ARGN}
                  OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Rc
                  TIMEOUT 10)
  if(NOT Rc EQUAL 1 OR NOT Err MATCHES "error: ")
    list(JOIN ARGN " " Command)
    string(REGEX REPLACE "[\n;]" " " Err "${Err}")
    list(APPEND Failures "halo_cli ${Command}: exit ${Rc}, stderr: ${Err}")
  endif()
  set(Failures "${Failures}" PARENT_SCOPE)
endfunction()

set(Setup --chunk-size --max-spare-chunks --max-groups --affinity-distance)
set(Measuring --trials --jobs --machine ${Setup})
foreach(Command baseline run hds)
  expect_rejects("${Measuring};--out;--store-dir" ${Command} health)
endforeach()
expect_rejects("--out" trace health)
expect_rejects("${Measuring}" plot health)
expect_rejects("${Measuring};--out;--store-dir" sweep health)
expect_rejects("${Measuring};--out;--store-dir;--machines;--kinds;--scale;--seed-base"
               experiments health)
expect_rejects("" machines)
expect_rejects("--store-dir;--out" store ls --store-dir ${Store})
expect_rejects("--store-dir" store gc --store-dir ${Store})
expect_rejects("--store-dir" store verify --store-dir ${Store})
expect_rejects("--socket;--jobs;--store-dir" serve --socket ${Sock})
expect_rejects("--socket;--trials;--machine;--machines;--kinds;--scale;--seed-base;--out"
               client run health --socket ${Sock})
expect_rejects("--socket" client stats --socket ${Sock})
expect_rejects("--socket" client shutdown --socket ${Sock})

foreach(Command baseline run hds trace)
  expect_positional_error(${Command} health xalanc)
endforeach()
expect_positional_error(machines health)
foreach(Verb ls gc verify)
  expect_positional_error(store ${Verb} --store-dir ${Store} health)
endforeach()
expect_positional_error(serve --socket ${Sock} health xalanc)
foreach(Verb stats shutdown)
  expect_positional_error(client ${Verb} --socket ${Sock} health)
endforeach()
file(REMOVE ${Sock})

if(Failures)
  list(JOIN Failures "\n  " Report)
  message(FATAL_ERROR "expected a usage error (exit 1) from each of:\n  ${Report}")
endif()

# 5. Junk files named with a newline and a tab, listed as JSON.
set(JunkStore ${WORK_DIR}/junk_store)
file(REMOVE_RECURSE ${JunkStore})
file(MAKE_DIRECTORY ${JunkStore})
file(WRITE "${JunkStore}/bad\nname" "not a store entry")
file(WRITE "${JunkStore}/tab\tx" "not a store entry")
set(Listing ${WORK_DIR}/junk_listing.json)
execute_process(COMMAND ${HALO_CLI} store ls --store-dir ${JunkStore}
                        --out ${Listing}
                OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "halo_cli store ls --out failed (exit ${Rc}): ${Err}")
endif()
file(READ ${Listing} Json)
string(JSON Count ERROR_VARIABLE JsonErr LENGTH "${Json}")
if(JsonErr)
  message(FATAL_ERROR "store ls --out wrote invalid JSON (${JsonErr}):\n${Json}")
endif()
if(NOT Count EQUAL 2)
  message(FATAL_ERROR "store ls --out listed ${Count} entries, not 2:\n${Json}")
endif()
foreach(I 0 1)
  string(JSON File GET "${Json}" ${I} file)
  string(JSON Type GET "${Json}" ${I} type)
  if(NOT File MATCHES "^(bad\nname|tab\tx)$" OR Type STREQUAL "trace")
    message(FATAL_ERROR "store ls --out listed junk file '${File}' as "
                        "type '${Type}':\n${Json}")
  endif()
endforeach()

# 6. Values checked before anything is opened, and temp files removed.
set(Out ${WORK_DIR}/rejected.json)
set(Failures "")

# expect_no_output(<error regex> <command line>...): exit 1, an error
# matching the regex, and neither ${Out} nor ${Out}.tmp left behind.
function(expect_no_output Regex)
  file(REMOVE ${Out} ${Out}.tmp)
  execute_process(COMMAND ${ARGN} --out ${Out}
                  OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Rc
                  TIMEOUT 30)
  if(NOT Rc EQUAL 1 OR NOT Err MATCHES "error: [^\n]*${Regex}"
     OR EXISTS ${Out} OR EXISTS ${Out}.tmp)
    list(JOIN ARGN " " Command)
    string(REGEX REPLACE "[\n;]" " " Err "${Err}")
    list(APPEND Failures "${Command}: exit ${Rc}, stderr: ${Err}")
  endif()
  set(Failures "${Failures}" PARENT_SCOPE)
endfunction()

foreach(Size 64 3000 4096 134217728 8589934592)
  expect_no_output("--chunk-size: '${Size}' \\(expected a power of two from 8192 to 67108864\\)"
                   ${HALO_CLI} run health --trials 1 --chunk-size ${Size})
endforeach()
expect_no_output("--trials" ${HALO_CLI} run health --trials 65537)
expect_no_output("--trials" ${HALO_CLI} experiments health --trials 65537)
# Rejected before connecting: no daemon listens on ${Sock}.
expect_no_output("--trials" ${HALO_CLI} client run health --socket ${Sock}
                 --kinds jemalloc --scale test --trials 65537)
expect_no_output("HALO_JOBS" ${CMAKE_COMMAND} -E env HALO_JOBS=x
                 ${HALO_CLI} run health --trials 1)

# The range's ends run: every grouped object fits the least chunk, and the
# largest is the whole slab.
foreach(Size 8192 67108864)
  file(REMOVE ${Out})
  execute_process(COMMAND ${HALO_CLI} experiments health --kinds halo,hds
                          --scale test --trials 1 --chunk-size ${Size}
                          --out ${Out}
                  OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0 OR NOT EXISTS ${Out})
    string(REGEX REPLACE "[\n;]" " " Err "${Err}")
    list(APPEND Failures "experiments --chunk-size ${Size}: exit ${Rc}, stderr: ${Err}")
  endif()
endforeach()

if(Failures)
  list(JOIN Failures "\n  " Report)
  message(FATAL_ERROR "value checks failed:\n  ${Report}")
endif()

message(STATUS "halo_cli flag and output checks passed")
