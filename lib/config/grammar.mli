(** The [(air-system …)] grammar: one {!Codec} per form, each field's tag,
    default, presence rule and range check written once. {!Loader} decodes
    with it and {!Encode} encodes with it.

    The [(faults …)] section is decode-only: it is validated as part of
    the document but is not part of [Air.System.config]. *)

val system : Air.System.config Codec.value

val campaigns :
  Codec.names -> Sexp.t list -> Air_faults.Campaign.spec list Decode.t
(** The [campaign] forms of a [(faults …)] section. *)

val names_of_doc : Sexp.t -> Codec.names Decode.t
(** The names an [(air-system …)] form declares, read before the form
    itself, which refers to them. *)

val names_of_config : Air.System.config -> Codec.names
