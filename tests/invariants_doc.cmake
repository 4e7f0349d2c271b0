# The `ctest -L lint` check that docs/INVARIANTS.md documents exactly
# the registered audit checks, run via `cmake -P`.
#
# The names in the document's `| check | invariant |` tables must be
# the names `ahq checks` lists (check::registeredChecks()), each
# documented once, so the registry and its documentation cannot
# drift apart.
# Required -D variables: AHQ (the ahq binary), DOC (the document).

if(NOT DEFINED AHQ OR NOT DEFINED DOC)
    message(FATAL_ERROR "invariants_doc.cmake: -DAHQ= and -DDOC= are required")
endif()

execute_process(COMMAND ${AHQ} checks OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "invariants_doc: `ahq checks` exited ${rc}")
endif()
# Table rows: two spaces, then the dotted check name.
string(REGEX MATCHALL "\n  [a-z0-9_]+\\.[a-z0-9_]+ " rows "${out}")
set(registered "")
foreach(row IN LISTS rows)
    string(STRIP "${row}" name)
    list(APPEND registered ${name})
endforeach()
list(LENGTH registered n)
if(n EQUAL 0)
    message(FATAL_ERROR "invariants_doc: `ahq checks` listed no checks")
endif()

file(READ ${DOC} doc)
string(REGEX MATCHALL
    "\\| check \\| invariant \\|\n\\|---\\|---\\|\n(\\|[^\n]*\n)+"
    tables "${doc}")
string(REGEX MATCHALL "\n\\| `[^`]+` \\|" cells "${tables}")
set(documented "")
set(problems "")
foreach(cell IN LISTS cells)
    string(REGEX REPLACE "\n\\| `([^`]+)` \\|" "\\1" name "${cell}")
    list(FIND documented ${name} at)
    if(NOT at EQUAL -1)
        list(APPEND problems "documented twice: ${name}")
    endif()
    list(APPEND documented ${name})
    list(FIND registered ${name} at)
    if(at EQUAL -1)
        list(APPEND problems "documented but not registered: ${name}")
    endif()
endforeach()
foreach(name IN LISTS registered)
    list(FIND documented ${name} at)
    if(at EQUAL -1)
        list(APPEND problems "registered but not documented: ${name}")
    endif()
endforeach()

if(problems)
    string(REPLACE ";" "\n  " problems "${problems}")
    message(FATAL_ERROR "invariants_doc: ${DOC} and `ahq checks` "
        "disagree:\n  ${problems}")
endif()
message(STATUS "invariants_doc: ${DOC} documents all ${n} "
    "registered checks")
