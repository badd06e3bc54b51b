open Decode

let parse_error e = Error (Format.asprintf "%a" Sexp.pp_error e)

(* Eqs. (21)-(23) on every table, sharded to the document's cores: the
   check [System.create] makes, answered here as a diagnostic instead of
   an exception. *)
let check_schedules (cfg : Air.System.config) =
  let cores = Option.value cfg.cores ~default:1 in
  let check (s : Air_model.Schedule.t) =
    match Air_model.Multicore.(validate (shard ~cores s)) with
    | [] -> Ok ()
    | d :: _ ->
      error "air-system.schedules: schedule %s: %a" s.name
        Air_model.Multicore.pp_diagnostic d
    | exception Invalid_argument m ->
      error "air-system.schedules: schedule %s: %s" s.name m
  in
  let* _ = map_all check cfg.schedules in
  Ok ()

let decode_system doc =
  let* names = Grammar.names_of_doc doc in
  let* cfg = Grammar.system.Codec.dec names doc in
  let* () = check_schedules cfg in
  Ok cfg

let of_string decode input =
  match Sexp.parse_one input with
  | Error e -> parse_error e
  | Ok s -> decode s

let of_file decode path =
  match Sexp.parse_file path with
  | Error e -> parse_error e
  | Ok [ s ] -> decode s
  | Ok _ -> Error "expected exactly one (air-system …) form"

let load input = of_string decode_system input
let load_file path = of_file decode_system path

let campaigns_of doc =
  let* names = Grammar.names_of_doc doc in
  let* body = tagged "air-system" doc in
  let* f = fields_of ~context:"air-system" body in
  Grammar.campaigns names (rest_of f "faults")

let load_campaigns input = of_string campaigns_of input
let load_campaigns_file path = of_file campaigns_of path

(* --- Clusters ------------------------------------------------------------ *)

let decode_bus args =
  let* f = fields_of ~context:"bus" args in
  let* latency = with_default f "latency" (one time) Air.Cluster.default_bus.Air.Cluster.latency in
  let* bytes_per_tick =
    with_default f "bytes-per-tick" (one int)
      Air.Cluster.default_bus.Air.Cluster.bytes_per_tick
  in
  let* () = assert_no_extra f ~known:[ "latency"; "bytes-per-tick" ] in
  Ok { Air.Cluster.latency; bytes_per_tick }

let decode_module_decl s =
  let* body = tagged "module" s in
  let* f = fields_of ~context:"module" body in
  let* name = required f "name" (one atom) in
  let* config = required f "config" (one atom) in
  let* () = assert_no_extra f ~known:[ "name"; "config" ] in
  Ok (name, config)

let decode_link module_names s =
  let* body = tagged "link" s in
  let* f = fields_of ~context:"link" body in
  let endpoint field_name =
    match rest_of f field_name with
    | [ Sexp.Atom m; Sexp.Atom port ] -> (
      match List.find_index (String.equal m) module_names with
      | Some i -> Ok (i, port)
      | None -> error "unknown module %s" m)
    | _ -> error "link.%s: expected MODULE PORT" field_name
  in
  let* from_module, from_port = endpoint "from" in
  let* to_module, to_port = endpoint "to" in
  let* latency = optional f "latency" (one int) in
  let* () = assert_no_extra f ~known:[ "from"; "to"; "latency" ] in
  Ok
    (Air.Cluster.link ?latency ~from_module ~from_port ~to_module ~to_port ())

let load_cluster_file ?instrument path =
  let dir = Filename.dirname path in
  match Sexp.parse_file path with
  | Error e -> parse_error e
  | Ok [ doc ] -> (
    let build =
      let* body = tagged "air-cluster" doc in
      let* f = fields_of ~context:"air-cluster" body in
      let* bus =
        match rest_of f "bus" with
        | [] -> Ok Air.Cluster.default_bus
        | args -> decode_bus args
      in
      let* modules = map_all decode_module_decl (rest_of f "modules") in
      let* () =
        if modules = [] then error "air-cluster: no modules" else Ok ()
      in
      let module_names = List.map fst modules in
      let* links = map_all (decode_link module_names) (rest_of f "links") in
      let* () =
        assert_no_extra f ~known:[ "bus"; "modules"; "links" ]
      in
      let* systems =
        map_all
          (fun (i, (name, config)) ->
            let resolved =
              if Filename.is_relative config then Filename.concat dir config
              else config
            in
            match load_file resolved with
            | Ok cfg ->
              (* Caller's instrumentation hook: e.g. air_run attaches a
                 flight recorder and causal tracker to every module when
                 an observability export was requested. *)
              let cfg =
                match instrument with None -> cfg | Some f -> f i cfg
              in
              Ok (Air.System.create cfg)
            | Error e -> error "module %s (%s): %s" name resolved e)
          (List.mapi (fun i m -> (i, m)) modules)
      in
      Ok (bus, links, systems)
    in
    match build with
    | Error e -> Error e
    | Ok (bus, links, systems) -> (
      match Air.Cluster.create ~bus ~links systems with
      | cluster -> Ok cluster
      | exception Invalid_argument m -> Error m))
  | Ok _ -> Error "expected exactly one (air-cluster …) form"

(* --- Fleets -------------------------------------------------------------- *)

let decode_topology = function
  | [] | [ Sexp.Atom "ring" ] -> Ok Air_fleet.Topology.Ring
  | [ Sexp.Atom "mesh" ] -> Ok Air_fleet.Topology.Mesh
  | [ Sexp.Atom "grid"; rows; cols ] ->
    let* rows = int rows in
    let* cols = int cols in
    Ok (Air_fleet.Topology.Grid { rows; cols })
  | _ -> error "topology: expected ring, mesh or grid ROWS COLS"

type fleet = { fleet_cluster : Air.Cluster.t; fleet_domains : int }

let load_fleet_file ?instrument path =
  let dir = Filename.dirname path in
  match Sexp.parse_file path with
  | Error e -> parse_error e
  | Ok [ doc ] ->
    let* body = tagged "air-fleet" doc in
    let* f = fields_of ~context:"air-fleet" body in
    let* template = required f "template" (one atom) in
    let* n = required f "modules" (one int) in
    let* () =
      if n < 2 then error "air-fleet: needs at least 2 modules" else Ok ()
    in
    let* shape = decode_topology (rest_of f "topology") in
    let* gateway = with_default f "gateway" (one atom) "TX" in
    let* ingress = with_default f "ingress" (one atom) "RX" in
    let* bus =
      match rest_of f "bus" with
      | [] -> Ok Air.Cluster.default_bus
      | args -> decode_bus args
    in
    let* isl_latency = optional f "isl-latency" (one time) in
    let* domains = with_default f "domains" (one int) 1 in
    let* () =
      if domains < 1 then error "air-fleet: domains must be >= 1" else Ok ()
    in
    let* () =
      assert_no_extra f
        ~known:
          [ "template"; "modules"; "topology"; "gateway"; "ingress"; "bus";
            "isl-latency"; "domains" ]
    in
    let* links =
      match
        Air_fleet.Topology.links ?latency:isl_latency ~gateway ~ingress shape
          ~n
      with
      | links -> Ok links
      | exception Invalid_argument m -> error "air-fleet: %s" m
    in
    let resolved =
      if Filename.is_relative template then Filename.concat dir template
      else template
    in
    let* systems =
      map_all
        (fun i ->
          (* The template is reloaded per module so clones never share
             mutable observability state (trackers, recorders). *)
          match load_file resolved with
          | Ok cfg ->
            let cfg =
              match instrument with None -> cfg | Some f -> f i cfg
            in
            Ok (Air.System.create cfg)
          | Error e -> error "air-fleet template %s: %s" resolved e)
        (List.init n Fun.id)
    in
    (match Air.Cluster.create ~bus ~links systems with
    | cluster -> Ok { fleet_cluster = cluster; fleet_domains = domains }
    | exception Invalid_argument m -> error "air-fleet: %s" m)
  | Ok _ -> Error "expected exactly one (air-fleet …) form"

let schedule_index name doc =
  let* names = Grammar.names_of_doc doc in
  Codec.schedule_index.Codec.dec names (Sexp.Atom name)
