(** A fabric tenant: an independent pipeline, its input stream, and a
    {!Qos} class.

    Tenants are what the {!Scheduler} places on islands and what the
    {!Allocator} arbitrates between.  {!synthetic_mix} builds the
    seeded workloads the cap-sweep bench and the tests share:
    single-kernel pipelines over Table I kernels with phase-shifted,
    data-dependent iteration counts, so different tenants desire
    different DVFS levels at different times. *)

type t = {
  id : string;  (** unique within a fleet *)
  qos : Qos.class_;
  pipeline : Iced_stream.Pipeline.t;
  inputs : Iced_stream.Pipeline.input list;
}

val make :
  id:string -> qos:Qos.class_ -> Iced_stream.Pipeline.t ->
  Iced_stream.Pipeline.input list -> t
(** Build a tenant.  @raise Invalid_argument on an empty id or an empty
    input stream. *)

val synthetic_mix : ?inputs:int -> seed:int -> count:int -> unit -> t list
(** [synthetic_mix ~seed ~count ()] builds [count] tenants, cycling
    Table I kernels small enough to map on a single 2x2 island (so a
    dense mix stays feasible) and QoS classes
    premium/standard/batch, each with [inputs] (default 60) seeded
    inputs whose work factors are drawn from per-tenant phase-shifted
    ranges.  Equal seeds give equal fleets; a tenant's stream does not
    depend on [count].
    @raise Invalid_argument on a non-positive [count] or [inputs]. *)
