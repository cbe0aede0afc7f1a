(** Graphviz export of PVPGs, in the visual style of the paper's Figures 7
    and 8: full lines are {e use} edges, dashed lines with empty arrowheads
    are {e predicate} edges, dotted lines are {e observe} edges; enabled
    flows are drawn red, disabled flows grey. *)

open Skipflow_ir

let escape s =
  String.concat ""
    (List.map
       (fun c -> match c with '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let flow_label prog (f : Flow.t) =
  let base =
    match f.Flow.kind with
    | Flow.Pred_on -> "pred_on"
    | Flow.Source v -> Format.asprintf "source %a" Vstate.pp v
    | Flow.Alloc c -> "new " ^ Program.class_name prog c
    | Flow.Param i -> Printf.sprintf "p%d" i
    | Flow.Phi -> "phi"
    | Flow.Phi_pred -> "phi_pred"
    | Flow.Field_load fa ->
        "load " ^ Program.qualified_field_name prog fa.Flow.fa_field
    | Flow.Field_store fa ->
        "store " ^ Program.qualified_field_name prog fa.Flow.fa_field
    | Flow.Field_state fid -> "field " ^ Program.qualified_field_name prog fid
    | Flow.Static_load fid -> "static load " ^ Program.qualified_field_name prog fid
    | Flow.Static_store fid -> "static store " ^ Program.qualified_field_name prog fid
    | Flow.Cast c -> "cast (" ^ Program.class_name prog c ^ ")"
    | Flow.Invoke inv ->
        "invoke " ^ Program.qualified_name prog inv.Flow.inv_target
    | Flow.Return -> "return"
    | Flow.Filter { branch_then; _ } -> (
        let sign = if branch_then then "" else "!" in
        match f.Flow.filter with
        | Flow.Instanceof { cls; negated; _ } ->
            Printf.sprintf "%sinstanceof %s"
              (if negated then "!" else "")
              (Program.class_name prog cls)
        | Flow.Compare { op; _ } -> Format.asprintf "filter %a" Vstate.pp_cmp_op op
        | _ -> sign ^ "filter")
    | Flow.All_instantiated c -> "all_instantiated " ^ Program.class_name prog c
  in
  Printf.sprintf "%s\\nVS=%s" (escape base)
    (escape (Format.asprintf "%a" (Vstate.pp_named ~class_name:(Program.class_name prog)) f.Flow.state))

let emit_graph prog ppf (graphs : Graph.method_graph list) =
  Format.fprintf ppf "digraph pvpg {@\n  node [shape=box, fontsize=10];@\n";
  let seen = Hashtbl.create 256 in
  let node (f : Flow.t) =
    if not (Hashtbl.mem seen f.Flow.id) then begin
      Hashtbl.replace seen f.Flow.id ();
      let color = if f.Flow.enabled then "red" else "grey" in
      Format.fprintf ppf "  n%d [label=\"%s\", color=%s];@\n" f.Flow.id
        (flow_label prog f) color
    end
  in
  let edges (f : Flow.t) =
    List.iter
      (fun (u : Flow.t) -> Format.fprintf ppf "  n%d -> n%d;@\n" f.Flow.id u.Flow.id)
      f.Flow.uses;
    List.iter
      (fun (p : Flow.t) ->
        Format.fprintf ppf "  n%d -> n%d [style=dashed, arrowhead=empty];@\n"
          f.Flow.id p.Flow.id)
      f.Flow.pred_out;
    List.iter
      (fun (o : Flow.t) ->
        Format.fprintf ppf "  n%d -> n%d [style=dotted];@\n" f.Flow.id o.Flow.id)
      f.Flow.observers
  in
  List.iter
    (fun (g : Graph.method_graph) ->
      Format.fprintf ppf "  subgraph cluster_%d {@\n    label=\"%s\";@\n"
        (Ids.Meth.to_int g.Graph.g_meth.Program.m_id)
        (escape (Program.qualified_name prog g.Graph.g_meth.Program.m_id));
      Array.iter node g.Graph.g_flows;
      Format.fprintf ppf "  }@\n")
    graphs;
  (* second pass: edges (and any global flows they touch) *)
  let rec close (f : Flow.t) =
    List.iter
      (fun (x : Flow.t) ->
        if not (Hashtbl.mem seen x.Flow.id) then begin
          node x;
          close x
        end)
      (f.Flow.uses @ f.Flow.pred_out @ f.Flow.observers)
  in
  List.iter (fun g -> Array.iter close g.Graph.g_flows) graphs;
  List.iter (fun g -> Array.iter edges g.Graph.g_flows) graphs;
  Format.fprintf ppf "}@\n"

let to_string prog graphs = Format.asprintf "%a" (emit_graph prog) graphs

let write_file prog ~path graphs =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  emit_graph prog ppf graphs;
  Format.pp_print_flush ppf ();
  close_out oc
