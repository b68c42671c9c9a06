(** Canonical non-negative decimal integers: the one reader for numbers
    written inside strings.  The fabric and design-point codecs
    ({!Iced_explore.Space}), the mapper's backend seeds, the synthetic
    kernel names and the CLI's counts all read with it, so the daemon and the CLI accept the same
    spellings, and each [to_string] is the exact inverse of its parser. *)

val of_string : string -> int option
(** [Some n] exactly when [s] is [string_of_int n] for some [n >= 0]:
    ASCII digits only, no sign, no leading zero, no [_] or radix
    prefix, and nothing past [max_int]. *)
