(** Island recovery for both levels that own islands: kernels inside a
    tenant's partition ({!Runner}) and tenants on a shared fabric
    ([Iced_tenancy.Scheduler]).  A dead island's owner first {e shrinks}
    onto its surviving islands, else {e borrows} one from the richest
    holder that can itself shrink.  The caller supplies the resize (a
    kernel remaps, a tenant takes a prepared partition) and decides
    what [Error] means: the runner aborts the stream, the scheduler
    evicts the tenant. *)

type 'a holder = {
  item : 'a;  (** the caller's kernel or tenant *)
  floor : int;  (** fewest islands the holder may run on *)
  mutable count : int;  (** islands the holder runs on *)
  mutable owned : int list;  (** the concrete islands it holds, in order *)
}
(** Outside {!gate}, [count = List.length owned] and [count >= floor]. *)

val owner : 'a holder list -> int -> 'a holder option
(** The first holder owning the island, if any. *)

val gate :
  resize:('a holder -> (unit, string) result) ->
  'a holder list -> 'a holder -> island:int -> (unit, string) result
(** [gate ~resize holders victim ~island] takes [island] from [victim]
    and re-floorplans.  [resize h] tries to fit [h] at [h.count]
    islands on [h.owned]: [Ok] commits (the caller charges or swaps
    inside it; never undone), [Error] changes nothing.  The victim
    shrinks if above its floor and [resize] accepts; else the other
    [holders] above their floor, richest first (stable: ties keep the
    caller's order), try to shrink, and the first accepted hands its
    last island to the victim, which is then resized.  [Error] when no
    donor is accepted or that resize fails (the donor stays shrunk). *)

val reconfig_us : Partition.candidate -> float
(** Latency of loading a candidate: its bitstream in 64-bit words, one
    word per base-clock cycle. *)

val tiles : Partition.t -> (string * int) list
(** Tiles behind each kernel's island count, in allocation order. *)
