(** Structured-event sink: a bounded ring of recent events plus per-kind
    occurrence counts.

    The sink is polymorphic in its payload so each layer can attach its own
    typed event (e.g. [Air_model.Event.t] at the system level) without the
    observability library depending on model types. Recording is O(1): one
    store into each ring array, one hash-table bump. Unlike a trace, the
    per-kind totals never decay — only the payload ring is bounded.

    Memory layout: the ring is three parallel arrays of [capacity] slots —
    times, kinds and payloads. The time and kind arrays are allocated by
    {!create}; the payload array by the first {!record}, filled with that
    payload, so no dummy value is needed. Once the payload array exists,
    recording an already-seen kind allocates nothing; {!recent} builds its
    [entry] records only when called. *)

type 'a entry = { time : int; kind : string; payload : 'a }

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] bounds the retained payload ring (default 256); raises
    [Invalid_argument] when non-positive. *)

val record : 'a t -> time:int -> kind:string -> 'a -> unit

val total : 'a t -> int
(** Events recorded over the sink's lifetime, not just those retained. *)

val count : 'a t -> string -> int

val counts : 'a t -> (string * int) list
(** Per-kind totals, sorted by kind for stable reports. *)

val recent : 'a t -> 'a entry list
(** Oldest-first list of the retained tail of the event stream. *)

val pp_counts : Format.formatter -> 'a t -> unit
