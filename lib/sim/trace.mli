(** Time-stamped event logs.

    A ['a Trace.t] collects [(time, 'a)] pairs in arrival order. The full
    system uses it with the event type of the AIR core; tests use it with
    small ad-hoc variants. Recording can be bounded: the trace then keeps the
    most recent [capacity] events (the prototype's VITRAL windows behave the
    same way).

    Memory layout: events are stored in fixed-size chunks of 1,024 entries,
    each one [int array] of times beside one ['a array] of events, so a
    retained event costs two words plus its own payload. Chunks are large
    enough to be allocated directly in the major heap. The first chunk is
    allocated by the first {!record}, not by {!create}, and each further
    chunk by the record that fills its first slot; recording into an open
    chunk allocates nothing on the minor heap. A bounded trace drops its
    oldest chunk once every event in it has fallen out of the newest
    [capacity]. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Unbounded by default. [capacity], when given, must be positive. *)

val record : 'a t -> Time.t -> 'a -> unit

val length : 'a t -> int
(** Number of events currently retained. *)

val total : 'a t -> int
(** Number of events ever recorded (≥ {!length} when bounded). *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th retained event, oldest first ([0 <= i <
    length t]); raises [Invalid_argument] otherwise. Constant time. *)

val time_at : 'a t -> int -> Time.t
(** The time stamp of [get t i]. *)

val fold : ('acc -> Time.t -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest first, without materialising the trace. *)

val iter : (Time.t -> 'a -> unit) -> 'a t -> unit

val to_list : 'a t -> (Time.t * 'a) list
(** Oldest first. Allocates a pair and a list cell per event; library code
    walks the trace with {!fold} or {!get} instead. *)

val events : 'a t -> 'a list

val filter : (Time.t -> 'a -> bool) -> 'a t -> (Time.t * 'a) list

val between : 'a t -> Time.t -> Time.t -> (Time.t * 'a) list
(** [between t from until] — events with [from <= time < until], oldest
    first. The interval is half-open: an event stamped exactly [until] is
    excluded, so consecutive calls with [(a, b)] and [(b, c)] partition
    the events without overlap. Empty when [until <= from]. *)

val count : ('a -> bool) -> 'a t -> int

val find_first : ('a -> bool) -> 'a t -> (Time.t * 'a) option

val find_last : ('a -> bool) -> 'a t -> (Time.t * 'a) option
