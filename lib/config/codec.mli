(** Two-way codecs over {!Sexp.t}: the one description of a grammar form
    from which both its decoder and its encoder are made.

    The decode half is lenient: it takes every spelling {!Decode} takes
    ([yes]/[no], [infinity], [poll], [*] wildcards). The encode half is
    canonical: it writes the first spelling of each alias list, every
    field with a value (defaults included), and omits only absent optional
    fields. So a document encoded from a decoded value decodes to that
    value again, by construction.

    Names are positional: partition and schedule references decode to the
    index of their declaration, and encode from it. *)

type names = { partitions : string array; schedules : string array }
(** The partition and schedule names a document declares, in order. *)

type ('s, 'a) t = {
  dec : names -> 's -> 'a Decode.t;
  enc : names -> 'a -> 's;
      (** Raises [Invalid_argument] for a value the grammar cannot
          express (e.g. an index with no declared name). *)
}

type 'a value = (Sexp.t, 'a) t
(** One s-expression. *)

type 'a args = (Sexp.t list, 'a) t
(** The arguments of a form: [(tag args…)]. *)

(** {1 Values} *)

val atom : string value
val int : int value
val bool : bool value
val time : Air_sim.Time.t value
val timeout : Air_sim.Time.t value
(** Decoded by {!Decode.atom}, {!Decode.int}, {!Decode.bool},
    {!Decode.time} and {!Decode.timeout}; encoded as [true]/[false],
    [infinite] and [poll]. *)

val conv :
  ('s, 'a) t -> (names -> 'a -> 'b Decode.t) -> ('b -> 'a) -> ('s, 'b) t
(** A representation change whose decode half may refuse. *)

val map : ('s, 'a) t -> ('a -> 'b) -> ('b -> 'a) -> ('s, 'b) t
val positive : ('s, int) t -> ('s, int) t
(** Refuses values [<= 0] with ["must be positive"]. *)

val partition_index : int value
val schedule_index : int value
(** A declared name ↔ its declaration index. *)

val wild : string -> 'a value -> 'a option value
(** [wild w c]: the atom [w] is [None], anything else is [c]. *)

val delay : 'a value Lazy.t -> 'a value
(** For recursive forms. *)

(** {1 Argument lists} *)

val one : 'a value -> 'a args
val many : 'a value -> 'a list args
val indexed : (int -> 'a value) -> 'a list args
(** Like {!many}, the element codec given its position. *)

val nil : unit args
val ( ** ) : 'a value -> 'b args -> ('a * 'b) args
(** A first argument, then the rest: [atom ** int ** one time]. *)

val opt_last : 'a -> 'a value -> 'a args
(** A last argument that may be left out (decoded as the default, always
    encoded). *)

val list_of : 'a args -> 'a value
(** A bare list [(x y …)] of positional arguments. *)

(** {1 Sums} *)

type 'a case

val case : string -> 'b args -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** The form [(tag args…)]: injection, and projection for encoding. *)

val decode_case : string -> 'b args -> ('b -> 'a) -> 'a case
(** A form of a decode-only document: never encoded. *)

val word : string -> 'a -> 'a case
(** The atom [tag]. Of several words for one value, the first is the one
    encoded. *)

val form0 : string -> 'a -> 'a case
(** The form [(tag)]. *)

val cases : string -> 'a case list -> 'a value
(** Tried in order; the string names the sum in diagnostics. *)

val enum : string -> (string * 'a) list -> 'a value
(** Only {!word}s. *)

(** {1 Records}

    A record form [(tag (field value…) …)] is a [record] of constructor,
    extended field by field with [|+]: each field gives its tag, its
    codec, its presence rule and the getter that reads it back for
    encoding. Unknown and duplicated fields are refused; every diagnostic
    carries the field path ([schedule.mtf: must be positive]). *)

type ('r, 'a) field

val req : string -> 'a args -> ('r -> 'a) -> ('r, 'a) field
(** Required. *)

val dft : string -> 'a args -> 'a -> ('r -> 'a) -> ('r, 'a) field
(** The default when absent. *)

val lst : string -> 'a value -> ('r -> 'a list) -> ('r, 'a list) field
(** [(tag x…)], the empty list when absent. *)

val opt : string -> 'a args -> ('r -> 'a option) -> ('r, 'a option) field
(** [None] when absent; encoded only when [Some]. *)

val section : string -> 'a args -> ('r -> 'a option) -> ('r, 'a option) field
(** Like {!opt}, and [(tag)] with no arguments is [None] too. *)

val decode_only :
  string -> (names -> Sexp.t list -> 'a Decode.t) -> ('r, unit) field
(** Validated on decode, never encoded: a section of the document that
    is not part of the value (e.g. fault campaigns). *)

type ('r, 'k) record

val record : 'k -> ('r, 'k) record
val ( |+ ) : ('r, 'a -> 'k) record -> ('r, 'a) field -> ('r, 'k) record

val body : string -> ('r, 'r) record -> 'r args
(** The fields as a form's arguments; the string is the diagnostic
    context. An [Invalid_argument] from the constructor becomes a
    diagnostic too. *)

val tagged : string -> ('r, 'r) record -> 'r value
(** [(tag fields…)]. *)

val record_case : string -> ('r, 'r) record -> ('r -> 'r option) -> 'r case
(** [(tag fields…)] as one case of a sum; the projection selects the
    values written in this form. *)
