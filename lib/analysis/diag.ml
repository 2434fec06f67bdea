type severity = Error | Warning | Info

type finding = {
  rule : string;
  severity : severity;
  subject : string;
  detail : string;
  suppressed : bool;
}

type rule_info = {
  id : string;
  family : string;
  title : string;
  default_severity : severity;
}

let r id family title default_severity = { id; family; title; default_severity }

let catalogue =
  [
    (* model lint ("Model Advisor") *)
    r "MDL001" "MDL" "input port is unconnected" Error;
    r "MDL002" "MDL" "Triggered block belongs to no function-call group" Error;
    r "MDL003" "MDL" "algebraic loop" Error;
    r "MDL004" "MDL" "empty model" Error;
    r "MDL005" "MDL" "dead block: no output reaches a sink or actuator" Warning;
    r "MDL006" "MDL" "output port drives nothing" Info;
    r "MDL007" "MDL" "bean project does not verify on the target MCU" Error;
    r "MDL008" "MDL" "peripheral block references a bean absent from the project"
      Error;
    r "MDL009" "MDL" "discrete rate is not an integer multiple of the base step"
      Warning;
    (* fixed-point range analysis *)
    r "FXP001" "FXP" "computed signal range exceeds the port data type" Warning;
    r "FXP002" "FXP" "fixed-point PID input exceeds its Q-format normalisation"
      Error;
    r "FXP003" "FXP" "cast always saturates: range entirely outside the target type"
      Error;
    r "FXP004" "FXP" "divisor range contains zero" Warning;
    (* concurrency (ISR shared state) *)
    r "CON001" "CON" "unprotected shared state across preemptive execution contexts"
      Error;
    r "CON002" "CON" "cross-context shared state, safe only by run-to-completion"
      Info;
    r "CON003" "CON" "shared signal wider than the MCU word (non-atomic access)"
      Warning;
    r "CON004" "CON" "Watch_dog bean with no _Clear path in the periodic context"
      Error;
    (* MIR def-use / value-range checks on the generated model unit *)
    r "MIR001" "MIR" "local may be read before it is assigned" Warning;
    r "MIR002" "MIR" "dead store: the value is never read" Info;
    r "MIR003" "MIR" "unreachable statement" Warning;
    r "MIR004" "MIR" "saturation-site verdict from the range prover" Info;
    (* MISRA-subset C lint *)
    r "MIS001" "MIS" "function has more than one return statement" Warning;
    r "MIS002" "MIS" "declaration shadows an outer identifier" Warning;
    r "MIS003" "MIS" "implicit narrowing conversion in assignment" Warning;
    r "MIS004" "MIS" "side effect in controlling expression" Warning;
    r "MIS005" "MIS" "verbatim C escapes static analysis" Info;
  ]

let rule_info id =
  match List.find_opt (fun ri -> ri.id = id) catalogue with
  | Some ri -> ri
  | None -> invalid_arg (Printf.sprintf "Diag.rule_info: unknown rule %S" id)

let make ~rule ~subject detail =
  let ri = rule_info rule in
  { rule; severity = ri.default_severity; subject; detail; suppressed = false }

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare_finding a b =
  match compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
      match String.compare a.rule b.rule with
      | 0 -> String.compare a.subject b.subject
      | c -> c)
  | c -> c

let matches_rule pat id =
  pat = id || (String.length pat = 3 && String.sub id 0 3 = pat)

let rule_selected ?rules id =
  match rules with
  | None -> true
  | Some pats -> List.exists (fun p -> matches_rule p id) pats

let valid_rule r = List.exists (fun ri -> ri.id = r || ri.family = r) catalogue

let parse_rules list =
  let pats = String.split_on_char ',' list |> List.map String.trim in
  match List.find_opt (fun r -> not (valid_rule r)) pats with
  | None -> Ok pats
  | Some r -> Error (Printf.sprintf "unknown rule %S" r)

type suppression = { s_subject : string; s_rule : string }

let parse_suppression s =
  match String.index_opt s ':' with
  | None ->
      if valid_rule s then Ok { s_subject = "*"; s_rule = s }
      else Error (Printf.sprintf "unknown rule %S in suppression" s)
  | Some i ->
      let subject = String.sub s 0 i in
      let rule = String.sub s (i + 1) (String.length s - i - 1) in
      if subject = "" then Error "empty subject in suppression"
      else if valid_rule rule then Ok { s_subject = subject; s_rule = rule }
      else Error (Printf.sprintf "unknown rule %S in suppression" rule)

let apply_suppressions sups findings =
  List.map
    (fun f ->
      let hit =
        List.exists
          (fun s ->
            (s.s_subject = "*" || s.s_subject = f.subject)
            && matches_rule s.s_rule f.rule)
          sups
      in
      if hit then { f with suppressed = true } else f)
    findings
