(** JSON for every document the repository emits or reads: one value
    type, one printer, one parser.

    Serve replies and request frames, the explore cache's write-ahead
    log, tenancy and cap-sweep reports, fault campaigns, traces,
    metrics and the bench [BENCH_*.json] files are all built as a
    {!value} and rendered by {!to_string}, so they share one string
    escaper and one number rule.  The parser is strict, with
    positioned errors, since the serving daemon decodes request frames
    off the wire. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list
      (** Members in document order; duplicate keys are kept as-is
          ({!member} returns the first). *)

val int : int -> value
(** [Num (float_of_int i)]: exact for [|i|] up to [2^53]. *)

(** {1 Encoding} *)

val to_string : value -> string
(** Compact JSON (no whitespace), members in list order.  Strings are
    rendered by {!quote} and numbers by {!number}, so
    [parse (to_string v) = Ok v] for every [v] whose numbers are
    finite. *)

val quote : string -> string
(** A complete JSON string literal for [s]: escapes ["\""], ["\\"],
    newline, carriage return, tab, and all other control bytes below
    [0x20] as [\u00XX].  Every other byte passes through unchanged. *)

val number : float -> string
(** The one number rule.  A finite [f] is printed with [%.17g], which
    [float_of_string] reads back to the same double and which prints
    an integral value below [1e17] the way [%d] would.  JSON has no [inf]/[nan]
    literals, so non-finite values are rendered as the quoted strings
    ["\"inf\""], ["\"-inf\""] and ["\"nan\""]: lossy but parseable. *)

(** {1 Decoding} *)

type error = { at : int;  (** byte offset of the failure *) reason : string }
(** A positioned decode failure — the protocol layer's "malformed or
    truncated frame" evidence. *)

val error_to_string : error -> string
(** ["<reason> at byte <at>"]. *)

val parse : string -> (value, error) result
(** Parse one complete JSON document.  Strict: rejects trailing
    garbage, raw control characters inside strings, malformed or
    truncated [\u] escapes (including lone surrogates), and truncated
    documents.  String escapes are decoded for real ([\n] becomes a
    newline, [\uXXXX] is emitted as UTF-8, surrogate pairs combined).
    Numbers are read with OCaml's float parser over the maximal
    number-shaped span. *)

(** {2 Accessors}

    Shape-checking helpers so callers destructure without rewriting
    the same matches: each returns [None] on a shape mismatch. *)

val member : string -> value -> value option
(** First member named [key] of an [Obj]; [None] otherwise. *)

val get_string : value -> string option
val get_number : value -> float option

val get_int : value -> int option
(** [Num f] when [f] is integral (no fractional part, in [int] range). *)

val get_bool : value -> bool option
val get_list : value -> value list option
val get_obj : value -> (string * value) list option
