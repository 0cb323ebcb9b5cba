# Every rule-engine backend must route alike: one faulted rule-driven run
# (two random link faults plus a live kill at cycle 500) at exec_mode =
# interp, vm and aot must print byte-identical `delivered ...` lines.
#
#   cmake -DFLEXSIM=<path to flexsim> -P check_flexsim_exec_modes.cmake
if(NOT FLEXSIM)
  message(FATAL_ERROR "pass -DFLEXSIM=<path to flexsim>")
endif()
set(reference "")
foreach(mode interp vm aot)
  execute_process(
    COMMAND "${FLEXSIM}" "algorithm = ft-mesh-rules" "width = 8" "height = 8"
            "link_faults = 2" "rate = 0.05" "warmup = 200" "measure = 1000"
            "seed = 3" "fault_at = 500:link:27:1" "exec_mode = ${mode}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "exec_mode = ${mode}: exit '${rc}'\n${out}${err}")
  endif()
  string(REGEX MATCH "\ndelivered [^\n]*" line "${out}")
  if(line STREQUAL "")
    message(FATAL_ERROR "exec_mode = ${mode}: no delivered line\n${out}")
  endif()
  if(reference STREQUAL "")
    set(reference "${line}")
    set(reference_mode "${mode}")
  elseif(NOT line STREQUAL reference)
    message(FATAL_ERROR "exec_mode = ${mode} differs from ${reference_mode}:"
                        "${reference}${line}")
  endif()
endforeach()
