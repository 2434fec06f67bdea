(** The diagnostic core of the static-analysis engine.

    Every analysis family (model lint, fixed-point range, concurrency,
    MISRA-subset C lint) reports {!finding}s carrying a stable rule ID
    from the {!catalogue}. The IDs are part of the tool's contract:
    suppressions, CI gating and the JSON report all key on them, so an
    ID is never reused for a different meaning. *)

type severity = Error | Warning | Info

type finding = {
  rule : string;  (** stable rule ID, e.g. ["FXP002"] *)
  severity : severity;
  subject : string;
      (** what the finding is about: a block name, a ["unit.c:function"]
          location for C lint, or [""] for whole-model findings *)
  detail : string;  (** human-readable message *)
  suppressed : bool;  (** matched a suppression; kept for the report *)
}

type rule_info = {
  id : string;
  family : string;  (** ["MDL"], ["FXP"], ["CON"] or ["MIS"] *)
  title : string;
  default_severity : severity;
}

val catalogue : rule_info list
(** Every rule the engine can emit, in ID order. *)

val make : rule:string -> subject:string -> string -> finding
(** Build a finding with the rule's default severity.
    @raise Invalid_argument on an unknown rule ID. *)

val severity_to_string : severity -> string

val compare_finding : finding -> finding -> int
(** Severity first, then rule ID, then subject — the report order. *)

(** {2 Rule selection and suppression} *)

val rule_selected : ?rules:string list -> string -> bool
(** [rule_selected ~rules id] is true when [rules] is absent, or
    contains [id] itself or its family prefix (["FXP"]). *)

val parse_rules : string -> (string list, string) result
(** Parse ["FXP,CON001"]: [Ok] the trimmed items when each is a
    {!catalogue} ID or family, else [Error] naming the first that is not. *)

type suppression = { s_subject : string; s_rule : string }
(** [s_subject] is a subject to match exactly or ["*"] for any;
    [s_rule] is a rule ID or family prefix. *)

val parse_suppression : string -> (suppression, string) result
(** Parse ["subject:RULE"] or ["RULE"] (any subject). *)

val apply_suppressions : suppression list -> finding list -> finding list
(** Mark (not drop) matching findings as [suppressed]. *)
