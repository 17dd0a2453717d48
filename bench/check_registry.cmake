# Registry smoke check: `rana_bench --list` must print exactly the
# harnesses of RANA_BENCH_HARNESSES (bench/CMakeLists.txt), one per
# line, followed by the line "<count> harnesses".
#
#   cmake -DRANA_BENCH=<path to rana_bench> -DHARNESSES=<a,b,...> \
#         -P check_registry.cmake

execute_process(COMMAND ${RANA_BENCH} --list
                OUTPUT_VARIABLE output
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "rana_bench --list exited with ${status}")
endif()

string(REPLACE "," ";" expected "${HARNESSES}")
list(LENGTH expected expected_count)

# Descriptions are free text: keep list separators out of them.
string(REPLACE ";" "," output "${output}")
string(REGEX MATCHALL "[^\n]+" lines "${output}")
list(POP_BACK lines count_line)
if(NOT count_line STREQUAL "${expected_count} harnesses")
    message(FATAL_ERROR "count line reads '${count_line}', expected "
                        "'${expected_count} harnesses'")
endif()

set(printed "")
foreach(line IN LISTS lines)
    string(REGEX MATCH "^[^ ]+" name "${line}")
    list(APPEND printed "${name}")
endforeach()
list(SORT printed)
list(SORT expected)
if(NOT printed STREQUAL expected)
    message(FATAL_ERROR "rana_bench --list prints [${printed}], "
                        "bench/CMakeLists.txt lists [${expected}]")
endif()
