# flexsim's config contract: a malformed value or an unknown key prints
# `config error: ...` naming the key and exits with status 2 — never an
# abort (which a WILL_FAIL test would also accept), never silently ignored.
#
#   cmake -DFLEXSIM=<path to flexsim> -P check_flexsim_config_errors.cmake
if(NOT FLEXSIM)
  message(FATAL_ERROR "pass -DFLEXSIM=<path to flexsim>")
endif()
foreach(case "rate|abc" "seed|x" "rates|0.1,abc" "rtae|0.5" "warmup|3x")
  string(REPLACE "|" ";" kv "${case}")
  list(GET kv 0 key)
  list(GET kv 1 value)
  execute_process(COMMAND "${FLEXSIM}" "${key} = ${value}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "'${key} = ${value}': exit '${rc}', want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "config error: [^\n]*'${key}'")
    message(FATAL_ERROR "'${key} = ${value}': no config error naming "
                        "'${key}'\n${err}")
  endif()
endforeach()
