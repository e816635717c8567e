# One recording per row: bench_offline builds each benchmark poset once, so
# every table that prints a row's state count must print the same count —
# Table 1's and Figures 10-11's `#states`, and ablation B's `states` once
# per subroutine. Reads counts only, never timings.
#
# Variables: BENCH (the bench_offline binary), ROWS (a list of ROW:N, N the
# number of counts that row prints at --scale=small).
foreach(spec IN LISTS ROWS)
  string(REPLACE ":" ";" spec "${spec}")
  list(GET spec 0 row)
  list(GET spec 1 expected)
  execute_process(
    COMMAND ${BENCH} --scale=small --only=${row}
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_QUIET)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "bench_offline --only=${row} failed (${result})")
  endif()

  # Table lines read "| cell | cell |"; a header line names the column.
  string(REPLACE "\n" ";" lines "${out}")
  set(column -1)
  set(counts "")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^\\|")
      continue()
    endif()
    string(REGEX REPLACE "^\\| *| *\\|$" "" line "${line}")
    string(REGEX REPLACE " *\\| *" ";" cells "${line}")
    list(GET cells 0 name)
    if(name STREQUAL "Benchmark")
      list(FIND cells "#states" column)
      if(column EQUAL -1)
        list(FIND cells "states" column)
      endif()
    elseif(name STREQUAL row AND NOT column EQUAL -1)
      list(GET cells ${column} count)
      list(APPEND counts "${count}")
    endif()
  endforeach()

  list(LENGTH counts printed)
  set(distinct ${counts})
  list(REMOVE_DUPLICATES distinct)
  list(LENGTH distinct num_distinct)
  if(NOT printed EQUAL expected OR NOT num_distinct EQUAL 1
     OR distinct STREQUAL "0")
    message(FATAL_ERROR "${row}: want ${expected} equal state counts, got "
                        "[${counts}]\n${out}")
  endif()
  message(STATUS "${row}: ${printed} tables print ${distinct} states")
endforeach()
