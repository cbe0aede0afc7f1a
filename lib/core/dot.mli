(** Graphviz export of PVPGs in the visual style of the paper's Figures 7
    and 8: full lines = use edges, dashed empty-head lines = predicate
    edges, dotted lines = observe edges; enabled flows red, disabled
    grey. *)

val to_string : Skipflow_ir.Program.t -> Graph.method_graph list -> string
val write_file : Skipflow_ir.Program.t -> path:string -> Graph.method_graph list -> unit
