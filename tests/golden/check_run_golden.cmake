# Golden byte-identity check for a program's output (ctest: golden_*; the
# goldens, their programs and their spellings are listed in the top-level
# CMakeLists.txt).
#
# The simulator is deterministic, so a command's output is a fixed byte
# string; a committed golden file pins it. Any refactor that claims "no
# behaviour change" must keep every listed spelling of the command
# byte-identical to the golden (a spelling that only names a default, or
# only moves work between threads, must not change a byte).
#
# SPELLINGS is a '|'-separated list of PROGRAM argument lists, each split
# like a shell command line; an empty SPELLINGS runs PROGRAM once with no
# arguments. An argument @OUT@ stands for the output file (the command
# writes its output there through --out); otherwise the command's stdout
# is the output.
#
# Invoked as:
#   cmake -DPROGRAM=<path> -DGOLDEN=<path> -DWORK_DIR=<dir>
#         "-DSPELLINGS=<args>|<args>..." -P this_file

foreach(Var PROGRAM GOLDEN WORK_DIR SPELLINGS)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "check_run_golden.cmake needs -D${Var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
get_filename_component(Stem ${GOLDEN} NAME_WE)
get_filename_component(Ext ${GOLDEN} LAST_EXT)
get_filename_component(ProgramName ${PROGRAM} NAME)

string(REPLACE "|" ";" SpellingList "${SPELLINGS}")
if(SpellingList STREQUAL "")
  set(SpellingList " ") # One spelling with no arguments.
endif()
set(Index 0)
foreach(Spelling IN LISTS SpellingList)
  math(EXPR Index "${Index} + 1")
  set(Out ${WORK_DIR}/${Stem}_${Index}${Ext})
  file(REMOVE ${Out})
  separate_arguments(Args UNIX_COMMAND "${Spelling}")
  set(StdOut ${Out})
  list(FIND Args "@OUT@" OutArg)
  if(OutArg GREATER -1)
    list(TRANSFORM Args REPLACE "^@OUT@$" "${Out}")
    set(StdOut ${WORK_DIR}/${Stem}_${Index}.log)
  endif()
  execute_process(COMMAND ${PROGRAM} ${Args}
                  OUTPUT_FILE ${StdOut}
                  RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${ProgramName} ${Args} failed (exit ${Rc})")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${Out} ${GOLDEN}
                  RESULT_VARIABLE Diff)
  if(NOT Diff EQUAL 0)
    message(FATAL_ERROR
            "${ProgramName} ${Args} output ${Out} differs from ${GOLDEN}; it "
            "must stay byte-identical (see .claude/skills/verify/SKILL.md "
            "for the golden recipe)")
  endif()
endforeach()

message(STATUS "${ProgramName} output matches the committed golden ${GOLDEN}")
