let encode cfg = Grammar.system.Codec.enc (Grammar.names_of_config cfg) cfg
let to_string cfg = Sexp.to_string (encode cfg)
