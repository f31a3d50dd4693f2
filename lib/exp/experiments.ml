(* The paper's experiments, in report order: the one id → tables registry
   behind `vscli experiment` and bench/main.exe. *)

type t = {
  id : string;
  blurb : string;
  tables : ?quick:bool -> unit -> Vs_stats.Table.t list;
}

let all =
  let e id blurb tables = { id; blurb; tables } in
  [
    e "e1" "Figure 1: mode-transition matrix" Exp_modes.tables;
    e "e2e3" "Figures 2 & 3: enriched-view scenarios" Exp_figures.tables;
    e "e4" "Claim C1: one-at-a-time vs batch admission" Exp_join.tables;
    e "e5" "Sections 4/6.2: shared-state classification" Exp_classify.tables;
    e "e6" "Claim C2: blocking vs two-piece transfer" Exp_transfer.tables;
    e "e7" "Example 1: file availability under churn" Exp_file.tables;
    e "e8" "Example 2: parallel look-up coverage" Exp_db.tables;
    e "e9e10" "Overheads: EVS and flush costs" Exp_overhead.tables;
    e "e11" "Loss tolerance: control plane under drop/dup" Exp_loss.tables;
    e "t" "Experiment T: sustained-throughput data plane" Exp_throughput.tables;
  ]
