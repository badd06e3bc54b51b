open Air_sim
open Ident

type t =
  | Context_switch of {
      from : Partition_id.t option;
      to_ : Partition_id.t option;
    }
  | Schedule_switch_request of {
      by : Partition_id.t option;
      target : Schedule_id.t;
    }
  | Schedule_switch of { from : Schedule_id.t; to_ : Schedule_id.t }
  | Change_action of {
      partition : Partition_id.t;
      action : Schedule.change_action;
    }
  | Partition_mode_change of {
      partition : Partition_id.t;
      mode : Partition.mode;
    }
  | Process_state_change of { process : Process_id.t; state : Process.state }
  | Process_dispatched of { process : Process_id.t }
  | Deadline_registered of { process : Process_id.t; deadline : Time.t }
  | Deadline_unregistered of { process : Process_id.t }
  | Deadline_violation of { process : Process_id.t; deadline : Time.t }
  | Hm_error of {
      level : Error.level;
      code : Error.code;
      partition : Partition_id.t option;
      process : Process_id.t option;
      detail : string;
    }
  | Hm_process_action of {
      process : Process_id.t;
      action : Error.process_action;
    }
  | Hm_partition_action of {
      partition : Partition_id.t;
      action : Error.partition_action;
    }
  | Hm_module_action of { action : Error.module_action }
  | Port_send of { port : Port_name.t; bytes : int }
  | Port_receive of { port : Port_name.t; bytes : int }
  | Port_overflow of { port : Port_name.t }
  | Memory_access of {
      partition : Partition_id.t;
      address : int;
      granted : bool;
    }
  | Application_output of { partition : Partition_id.t; line : string }
  | Module_halt of { reason : string }
  | Fault_injected of { label : string }

(* Kind labels, indexed by [kind_index]. *)
let kind_labels =
  [| "context-switch";
     "schedule-switch-request";
     "schedule-switch";
     "change-action";
     "partition-mode-change";
     "process-state-change";
     "process-dispatched";
     "deadline-registered";
     "deadline-unregistered";
     "deadline-violation";
     "hm-error";
     "hm-process-action";
     "hm-partition-action";
     "hm-module-action";
     "port-send";
     "port-receive";
     "port-overflow";
     "memory-access";
     "application-output";
     "module-halt";
     "fault-injected" |]

let kind_index = function
  | Context_switch _ -> 0
  | Schedule_switch_request _ -> 1
  | Schedule_switch _ -> 2
  | Change_action _ -> 3
  | Partition_mode_change _ -> 4
  | Process_state_change _ -> 5
  | Process_dispatched _ -> 6
  | Deadline_registered _ -> 7
  | Deadline_unregistered _ -> 8
  | Deadline_violation _ -> 9
  | Hm_error _ -> 10
  | Hm_process_action _ -> 11
  | Hm_partition_action _ -> 12
  | Hm_module_action _ -> 13
  | Port_send _ -> 14
  | Port_receive _ -> 15
  | Port_overflow _ -> 16
  | Memory_access _ -> 17
  | Application_output _ -> 18
  | Module_halt _ -> 19
  | Fault_injected _ -> 20

let kind_count = Array.length kind_labels
let kind_label i = kind_labels.(i)
let label ev = kind_labels.(kind_index ev)

let pp_opt pp ppf = function
  | None -> Format.pp_print_string ppf "idle"
  | Some x -> pp ppf x

let pp ppf = function
  | Context_switch { from; to_ } ->
    Format.fprintf ppf "context-switch %a → %a"
      (pp_opt Partition_id.pp) from (pp_opt Partition_id.pp) to_
  | Schedule_switch_request { by; target } ->
    Format.fprintf ppf "schedule-switch-request by %a target %a"
      (pp_opt Partition_id.pp) by Schedule_id.pp target
  | Schedule_switch { from; to_ } ->
    Format.fprintf ppf "schedule-switch %a → %a" Schedule_id.pp from
      Schedule_id.pp to_
  | Change_action { partition; action } ->
    Format.fprintf ppf "change-action %a: %a" Partition_id.pp partition
      Schedule.pp_change_action action
  | Partition_mode_change { partition; mode } ->
    Format.fprintf ppf "mode %a := %a" Partition_id.pp partition
      Partition.pp_mode mode
  | Process_state_change { process; state } ->
    Format.fprintf ppf "process %a → %a" Process_id.pp process
      Process.pp_state state
  | Process_dispatched { process } ->
    Format.fprintf ppf "dispatched %a" Process_id.pp process
  | Deadline_registered { process; deadline } ->
    Format.fprintf ppf "deadline-registered %a at %a" Process_id.pp process
      Time.pp deadline
  | Deadline_unregistered { process } ->
    Format.fprintf ppf "deadline-unregistered %a" Process_id.pp process
  | Deadline_violation { process; deadline } ->
    Format.fprintf ppf "DEADLINE VIOLATION %a (deadline %a)" Process_id.pp
      process Time.pp deadline
  | Hm_error { level; code; partition; process; detail } ->
    Format.fprintf ppf "HM %a-level %a%a%a%s" Error.pp_level level
      Error.pp_code code
      (fun ppf -> function
        | None -> ()
        | Some p -> Format.fprintf ppf " partition %a" Partition_id.pp p)
      partition
      (fun ppf -> function
        | None -> ()
        | Some p -> Format.fprintf ppf " process %a" Process_id.pp p)
      process
      (if String.equal detail "" then "" else ": " ^ detail)
  | Hm_process_action { process; action } ->
    Format.fprintf ppf "HM action on %a: %a" Process_id.pp process
      Error.pp_process_action action
  | Hm_partition_action { partition; action } ->
    Format.fprintf ppf "HM action on %a: %a" Partition_id.pp partition
      Error.pp_partition_action action
  | Hm_module_action { action } ->
    Format.fprintf ppf "HM module action: %a" Error.pp_module_action action
  | Port_send { port; bytes } ->
    Format.fprintf ppf "port-send %s (%d bytes)" port bytes
  | Port_receive { port; bytes } ->
    Format.fprintf ppf "port-receive %s (%d bytes)" port bytes
  | Port_overflow { port } -> Format.fprintf ppf "port-overflow %s" port
  | Memory_access { partition; address; granted } ->
    Format.fprintf ppf "memory-access %a 0x%x %s" Partition_id.pp partition
      address
      (if granted then "granted" else "DENIED")
  | Application_output { partition; line } ->
    Format.fprintf ppf "out %a: %s" Partition_id.pp partition line
  | Module_halt { reason } -> Format.fprintf ppf "MODULE HALT: %s" reason
  | Fault_injected { label } -> Format.fprintf ppf "FAULT INJECTED: %s" label

let is_deadline_violation = function
  | Deadline_violation _ -> true
  | _ -> false

let is_context_switch = function Context_switch _ -> true | _ -> false
let is_schedule_switch = function Schedule_switch _ -> true | _ -> false
let is_hm_error = function Hm_error _ -> true | _ -> false

let violation_of = function
  | Deadline_violation { process; deadline } -> Some (process, deadline)
  | _ -> None
