# Golden-output check for the built-in corpus: runs
# `sspar-analyze --emit --threads=1` and fails unless its stdout matches
# corpus_emit.txt byte for byte (verdicts, blockers, privates and the emitted
# annotated sources of every entry).
#
#   cmake -DCLI=<sspar-analyze> -DGOLDEN=<corpus_emit.txt> -DOUTPUT=<file>
#         -P check_corpus_emit.cmake
#
# When a change is meant to alter the corpus output, regenerate the file with
#   ./build/sspar-analyze --emit --threads=1 > tests/golden/corpus_emit.txt
# and review the diff like any other code change.
execute_process(COMMAND "${CLI}" --emit --threads=1
                OUTPUT_FILE "${OUTPUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sspar-analyze --emit --threads=1 exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUTPUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" "${OUTPUT}")
  message(FATAL_ERROR "corpus output differs from ${GOLDEN} (diff above)")
endif()
