(* Stage one of the optimizer pipeline: the candidate space.

   [candidates] expands a bound query into every (join algorithm × access
   path per side) plan the lowering can execute.  Pure plan surgery over
   catalog statistics — indexes and selectivities both come from
   {!Tb_statcore} — so enumeration never touches a page and never charges
   (treelint R1).  The packed/handle evaluation mode is not a plan choice
   here: the cost stage costs each plan once and ranks both modes of it.

   List order encodes the tie policy: the cost stage's argmin keeps the
   FIRST candidate on equal cost, so index paths precede scans (the
   Section 4.2 preference at low selectivity) and the paper's algorithms
   keep {!Estimate.all_algos} order. *)

module Sc = Tb_statcore.Stat_catalog

let indexable stats ~cls preds =
  List.filter_map
    (fun p ->
      match Plan.key_range p with
      | None -> None
      | Some (lo, hi) -> (
          match Sc.find_index stats ~cls ~attr:p.Plan.attr with
          | ix -> Some (p, ix, lo, hi)
          | exception Not_found -> None))
    preds

(* The most selective indexable conjunct under [sel], the first on a tie;
   the other conjuncts stay residual. *)
let best_index ~(sel : Plan.attr_pred -> float) stats ~cls preds =
  match indexable stats ~cls preds with
  | [] -> None
  | first :: rest ->
      let sel (p, _, _, _) = sel p in
      let best =
        List.fold_left
          (fun acc c -> if sel c < sel acc then c else acc)
          first rest
      in
      let chosen, _, lo, hi = best in
      let residual = List.filter (fun p -> p != chosen) preds in
      let attr = chosen.Plan.attr in
      Some (fun ~sorted -> Plan.Index_scan { cls; attr; lo; hi; sorted; residual })

(* Selections get the full Section 4.2 menu: fetch in index order, sort the
   Rids first, or sweep the extent. *)
let selection_accesses stats ~cls preds =
  let seq = Plan.Seq_scan { cls; preds } in
  match best_index ~sel:(Estimate.pred_sel stats ~cls) stats ~cls preds with
  | None -> [ seq ]
  | Some mk -> [ mk ~sorted:false; mk ~sorted:true; seq ]

(* Join sides fetch through a sorted index when one applies, or scan. *)
let side_accesses stats ~cls preds =
  let seq = Plan.Seq_scan { cls; preds } in
  match best_index ~sel:(Estimate.pred_sel stats ~cls) stats ~cls preds with
  | None -> [ seq ]
  | Some mk -> [ mk ~sorted:true; seq ]

(* The shape of an enumerated plan, e.g. "PHJ parent=index child=seq".
   Join sides only ever take the sorted index, so "index+sort" names a
   selection's access alone.  Built only when printed. *)
let describe plan =
  match plan with
  | Plan.Selection { access = Plan.Seq_scan _; _ } -> "seq"
  | Plan.Selection { access = Plan.Index_scan { sorted = false; _ }; _ } -> "index"
  | Plan.Selection { access = Plan.Index_scan { sorted = true; _ }; _ } ->
      "index+sort"
  | Plan.Hier_join { algo; parent_access; child_access; _ } ->
      let side = function Plan.Seq_scan _ -> "seq" | Plan.Index_scan _ -> "index" in
      Printf.sprintf "%s parent=%s child=%s" (Plan.algo_name algo)
        (side parent_access) (side child_access)

(* Estimated resident bytes of one side's hash table, for sizing hybrid
   spill partitions. *)
let side_bytes ?floor stats ~cls ~var ~preds select =
  let attrs, _self = Plan.needed_attrs var select in
  Estimate.preds_sel ?floor stats ~cls preds
  *. float_of_int (Estimate.cat_extent stats cls).Sc.x_card
  *. float_of_int
       (Estimate.payload_bytes stats ~cls attrs
       + Mem_hash.entry_overhead + Mem_hash.group_overhead)

(* Hybrid hashing: enough partitions that each spilled bucket fits
   comfortably in memory. *)
let partitions_for stats bytes =
  let budget = 0.8 *. float_of_int (Sc.available_bytes stats) in
  if budget <= 0.0 then 8 else max 1 (int_of_float (ceil (bytes /. budget)))

let candidates stats bound =
  match bound with
  | Plan.B_selection { var; cls; preds; select; aggregate } ->
      List.map
        (fun access -> Plan.Selection { var; cls; access; select; aggregate })
        (selection_accesses stats ~cls preds)
  | Plan.B_hier
      {
        parent_var;
        parent_cls;
        child_var;
        child_cls;
        set_attr;
        inv_attr;
        parent_preds;
        child_preds;
        select;
        aggregate;
      } ->
      List.concat_map
        (fun algo ->
          let needs_inv =
            match algo with
            | Plan.NL -> false
            | Plan.NOJOIN | Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ
            | Plan.SMJ ->
                true
          in
          if needs_inv && Option.is_none inv_attr then []
          else
            let parent_opts =
              match algo with
              | Plan.NOJOIN ->
                  (* NOJOIN reaches parents by navigation: scan semantics. *)
                  [ Plan.Seq_scan { cls = parent_cls; preds = parent_preds } ]
              | Plan.NL | Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ
              | Plan.SMJ ->
                  side_accesses stats ~cls:parent_cls parent_preds
            in
            let child_opts =
              match algo with
              | Plan.NL ->
                  (* NL evaluates child predicates during navigation. *)
                  [ Plan.Seq_scan { cls = child_cls; preds = child_preds } ]
              | Plan.NOJOIN | Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ
              | Plan.SMJ ->
                  side_accesses stats ~cls:child_cls child_preds
            in
            let partitions =
              match algo with
              | Plan.PHHJ ->
                  partitions_for stats
                    (side_bytes stats ~cls:parent_cls ~var:parent_var
                       ~preds:parent_preds select)
              | Plan.CHHJ ->
                  partitions_for stats
                    (side_bytes stats ~cls:child_cls ~var:child_var
                       ~preds:child_preds select)
              | Plan.NL | Plan.NOJOIN | Plan.PHJ | Plan.CHJ | Plan.SMJ -> 1
            in
            List.concat_map
              (fun parent_access ->
                List.map
                  (fun child_access ->
                    Plan.Hier_join
                      {
                        algo;
                        parent_var;
                        parent_cls;
                        child_var;
                        child_cls;
                        set_attr;
                        inv_attr;
                        parent_access;
                        child_access;
                        partitions;
                        select;
                        aggregate;
                      })
                  child_opts)
              parent_opts)
        Estimate.all_algos
