(** Resource budgets for the fixed-point engine (see the interface for the
    degradation contract).  A budget is pure data; enforcement lives in
    {!Engine.run} so that the trip reaction — saturate, widen, re-drain —
    can reuse the engine's own propagation machinery. *)

type t = {
  max_tasks : int option;
  max_seconds : float option;
  max_flows : int option;
  on_trip : [ `Degrade | `Pause ];
}

type trip = Tasks | Seconds | Flows

let make ?max_tasks ?max_seconds ?max_flows ?(on_trip = `Degrade) () =
  { max_tasks; max_seconds; max_flows; on_trip }

let unlimited = make ()

let is_unlimited b =
  b.max_tasks = None && b.max_seconds = None && b.max_flows = None

(** Small enough to trip on anything beyond a handful of statements, large
    enough that the engine has real in-flight state to degrade. *)
let tiny = { unlimited with max_tasks = Some 25 }

let check b ~work ~flows ~elapsed_s =
  let tripped cap v = match cap with Some c -> v >= c | None -> false in
  if tripped b.max_tasks work then Some Tasks
  else if tripped b.max_flows flows then Some Flows
  else
    match b.max_seconds with
    | Some cap when elapsed_s () >= cap -> Some Seconds
    | _ -> None

let trip_name = function
  | Tasks -> "task budget"
  | Seconds -> "time budget"
  | Flows -> "flow budget"

let pp ppf b =
  if is_unlimited b then Format.pp_print_string ppf "unlimited"
  else begin
    let sep = ref "" in
    let item fmt = Format.fprintf ppf "%s" !sep; sep := ", "; Format.fprintf ppf fmt in
    Option.iter (fun n -> item "tasks<=%d" n) b.max_tasks;
    Option.iter (fun s -> item "time<=%gs" s) b.max_seconds;
    Option.iter (fun n -> item "flows<=%d" n) b.max_flows
  end
