(** Rendering a system configuration back into the configuration language.

    Made from the same grammar table as {!Loader.load} ({!Grammar}), so
    the document it produces loads to an equal configuration: every field
    is written, defaults included, each value in its canonical spelling
    ([true]/[false], [infinite], [poll]). Used by integration tooling
    (dumping a programmatically built system for review) and by the
    round-trip property tests. *)

val encode : Air.System.config -> Sexp.t
(** Raises [Invalid_argument] if the configuration cannot be expressed in
    the language (it always can for configurations produced by
    {!Loader.load} or built from the public constructors, save for a
    process recovery action restarting a partition in a mode other than
    warm or cold). *)

val to_string : Air.System.config -> string
(** [Sexp.to_string] of {!encode}. *)
