(** Dominator-tree computation for base-language CFGs, using the iterative
    algorithm of Cooper, Harvey and Kennedy ("A Simple, Fast Dominance
    Algorithm").  Used by {!Validate} to check that SSA definitions dominate
    their uses, and available to clients that want dominance information
    about analyzed programs. *)

open Ids

type t = {
  idom : int array;  (** immediate dominator per block index; entry maps to itself; -1 = unreachable *)
  pre : int array;  (** preorder number in the dominator tree; -1 = unreachable *)
  size : int array;  (** number of blocks in the dominator subtree *)
}

(* Cooper et al.'s two-finger walk up the dominator tree built so far. *)
let rec intersect idom rpo_index b1 b2 =
  if b1 = b2 then b1
  else if rpo_index.(b1) > rpo_index.(b2) then intersect idom rpo_index idom.(b1) b2
  else intersect idom rpo_index b1 idom.(b2)

(* the meet of the dominators of the predecessors processed so far *)
let rec meet idom rpo_index acc = function
  | [] -> acc
  | p :: ps ->
      let p = Block.to_int p in
      if idom.(p) < 0 then meet idom rpo_index acc ps
      else meet idom rpo_index (if acc < 0 then p else intersect idom rpo_index p acc) ps

let compute (body : Bl.body) =
  let n = Array.length body.blocks in
  let post = Bl.postorder body in
  let last = Array.length post - 1 in
  (* reverse postorder is [post] read backwards *)
  let rpo_index = Array.make n (-1) in
  for j = 0 to last do
    rpo_index.(post.(j)) <- last - j
  done;
  let idom = Array.make n (-1) in
  let entry = Block.to_int body.entry in
  idom.(entry) <- entry;
  let changed = ref true in
  while !changed do
    changed := false;
    for j = last downto 0 do
      let b = post.(j) in
      if b <> entry then begin
        let new_idom = meet idom rpo_index (-1) body.blocks.(b).Bl.b_preds in
        if new_idom >= 0 && idom.(b) <> new_idom then begin
          idom.(b) <- new_idom;
          changed := true
        end
      end
    done
  done;
  (* Number the dominator tree in preorder.  An immediate dominator comes
     before the blocks it dominates in reverse postorder, so subtree sizes
     accumulate in postorder and preorder slots are handed out in reverse
     postorder; [rpo_index] is reused for each block's next free child
     slot. *)
  let size = Array.make n 0 in
  for j = 0 to last do
    let b = post.(j) in
    size.(b) <- size.(b) + 1;
    if b <> entry then size.(idom.(b)) <- size.(idom.(b)) + size.(b)
  done;
  let pre = Array.make n (-1) in
  for j = last downto 0 do
    let b = post.(j) in
    (if b = entry then pre.(b) <- 0
     else
       let d = idom.(b) in
       pre.(b) <- rpo_index.(d);
       rpo_index.(d) <- rpo_index.(d) + size.(b));
    rpo_index.(b) <- pre.(b) + 1
  done;
  { idom; pre; size }

let reachable t (b : Block.t) = t.pre.(Block.to_int b) >= 0

(** [dominates t ~dom ~sub] tests whether block [dom] dominates block [sub]
    (reflexively): [sub]'s preorder number falls in [dom]'s subtree.  Both
    blocks must be reachable. *)
let dominates t ~(dom : Block.t) ~(sub : Block.t) =
  let d = t.pre.(Block.to_int dom) and s = t.pre.(Block.to_int sub) in
  d <= s && s < d + t.size.(Block.to_int dom)

let idom t (b : Block.t) : Block.t option =
  let i = Block.to_int b in
  if t.idom.(i) < 0 || t.idom.(i) = i then None else Some (Block.of_int t.idom.(i))
