(** Resource budgets for the fixed-point engine (see the interface for the
    degradation contract).  A budget is pure data; enforcement lives in
    {!Engine.run} so that the trip reaction — saturate, widen, re-drain —
    can reuse the engine's own propagation machinery. *)

type t = {
  max_tasks : int option;
  max_seconds : float option;
  max_flows : int option;
}

type trip = Tasks | Seconds | Flows

let unlimited = { max_tasks = None; max_seconds = None; max_flows = None }

let is_unlimited b =
  b.max_tasks = None && b.max_seconds = None && b.max_flows = None

let make ?max_tasks ?max_seconds ?max_flows () =
  { max_tasks; max_seconds; max_flows }

(** Small enough to trip on anything beyond a handful of statements, large
    enough that the engine has real in-flight state to degrade. *)
let tiny = { unlimited with max_tasks = Some 25 }

let check b ~tasks ~flows ~elapsed_s =
  let tripped cap v = match cap with Some c -> v >= c | None -> false in
  if tripped b.max_tasks tasks then Some Tasks
  else if tripped b.max_flows flows then Some Flows
  else
    match b.max_seconds with
    | Some cap when elapsed_s () >= cap -> Some Seconds
    | _ -> None

(** Work-unit accounting for the engine's in-task probe: a single drained
    task can resolve an unbounded number of callees/fields, so between
    task boundaries the interprocedural links made {e inside the current
    task} count toward the task cap.  [links] must be that in-task delta,
    not a run-cumulative counter — the caller tracks the counter value at
    the last task boundary.  This bounds the overshoot of [max_tasks] by
    the work of one link, not one task, while tripping no earlier than
    the boundary check itself. *)
let check_work b ~tasks ~links ~flows ~elapsed_s =
  check b ~tasks:(tasks + links) ~flows ~elapsed_s

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
