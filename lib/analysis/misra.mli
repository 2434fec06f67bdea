(** MISRA-subset lint over the generated C AST: the MIS rule family.

    Runs on {!C_ast.cunit} values straight from the code generators, so
    every generated compilation unit (model code, main, HAL) is checked
    before it is ever written to disk. The subset covers the rules the
    AST can express (it has no [switch] statement, so the
    default-clause rule does not apply):

    - MIS001: a function body has more than one [return];
    - MIS002: a local declaration shadows a parameter, an outer local
      or a file-scope global;
    - MIS003: an assignment (or initialised declaration) implicitly
      narrows — wider integer into narrower, or floating into integer —
      without an explicit cast;
    - MIS004: a controlling expression ([if]/[while]/[for]/[?:]
      condition) contains a side effect (function call, [++]/[--],
      assignment operator);
    - MIS005: verbatim [Raw]/[Raw_item] text escapes the analysis
      (informational). *)

val lint : C_ast.cunit list -> Diag.finding list
