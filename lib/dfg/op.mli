(** Operation set of the ICED dataflow graph.

    Each DFG node carries one operation, corresponding to one LLVM
    instruction in the paper's toolchain.  ICED targets single-cycle
    functional units, so every operation has unit latency at the tile's
    local clock; DVFS stretches the local clock, not the op latency. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Cmp of cmp
  | Select  (** partial predication: select between two inputs by a predicate *)
  | Phi  (** loop-header merge of initial and loop-carried value *)
  | Load  (** scratchpad read: must map to an SPM-connected tile *)
  | Store  (** scratchpad write: must map to an SPM-connected tile *)
  | Const of int  (** literal operand materialization *)
  | Gep  (** address computation *)
  | Route  (** pure data movement inserted by the router *)

val needs_memory : t -> bool
(** [true] for operations that must sit on a tile with a scratchpad
    port (Load/Store). *)

val latency : t -> int
(** Latency in tile-local cycles.  Always 1 in the ICED prototype. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
