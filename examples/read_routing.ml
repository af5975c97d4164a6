(* Read routing: who may serve a read, and how stale may it be?

   §3.3.1's metric guarantee bounds a copy's staleness by κ, but the
   paper never says who gets to *use* the copy.  The router
   (Cm_route.Route) turns the static bound into a read-time decision: a
   client asks for "Salary1 within κ seconds" and is served from the
   New York copy iff its guarantee qualifies — κ proved and within the
   SLO, handle still valid, rule epoch still carrying the guarantee,
   site reachable — from the San Francisco master otherwise, and by a
   forced synchronous poll if even the master is cut off.

   Run with: dune exec examples/read_routing.exe *)

module Sys_ = Cm_core.System
module Net = Cm_net.Net
module Shell = Cm_core.Shell
module Msg = Cm_core.Msg
module Interface = Cm_core.Interface
module Route = Cm_route.Route
module Payroll = Cm_workload.Payroll

let show label (d : Route.decision) =
  Printf.printf "  %-34s -> %-11s %s@%s (kappa %g, latency %g)\n" label
    (Route.outcome_to_string d.Route.d_outcome)
    d.Route.d_served_base d.Route.d_served_site d.Route.d_served_kappa
    d.Route.d_latency;
  List.iter
    (fun s ->
      Printf.printf "  %36s skipped %s@%s: %s\n" "" s.Route.sk_target
        s.Route.sk_site s.Route.sk_reason)
    d.Route.d_skips

let () =
  let p = Payroll.create ~config:(Sys_.Config.seeded 2026) ~employees:3 () in
  Payroll.install_propagation p;
  let system = p.Payroll.system in
  (* The administrator knows B never writes Salary2 on its own — the
     same statement interfaces.rules ships for cmtool check/derive. *)
  let nsw = Interface.no_spontaneous_write Payroll.target_pattern in
  Sys_.declare_interfaces system [ nsw ];
  let route = Route.create system ~constraints:[ ("Salary1", "Salary2") ] in
  print_endline "The catalog the router works from:\n";
  print_string (Route.report_to_text route []);

  print_endline "\nA client in New York reads Salary1:\n";
  show "any staleness"
    (Route.read route ~client_site:Payroll.site_b "Salary1");
  show "within 11 s (= kappa, inclusive)"
    (Route.read ~within_kappa:11.0 route ~client_site:Payroll.site_b "Salary1");
  show "within 5 s (copy too stale)"
    (Route.read ~within_kappa:5.0 route ~client_site:Payroll.site_b "Salary1");

  print_endline
    "\nA metric failure at New York invalidates the copy's guarantee (§5):\n";
  Shell.report_failure (Sys_.shell system ~site:Payroll.site_b) Msg.Metric;
  show "any staleness"
    (Route.read route ~client_site:Payroll.site_b "Salary1");

  print_endline "\n...and a partition towards the master forces a poll:\n";
  Net.partition (Sys_.net system) ~from_site:Payroll.site_b
    ~to_site:Payroll.site_a ~until:1e9;
  show "any staleness"
    (Route.read route ~client_site:Payroll.site_b "Salary1");

  Printf.printf
    "\n%d reads: %d replica, %d master, %d forced poll\n"
    (Route.reads route)
    (Route.reads_by route Route.Replica)
    (Route.reads_by route Route.Master)
    (Route.reads_by route Route.Forced_poll)
