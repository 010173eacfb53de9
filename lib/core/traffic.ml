let cbr scenario host ~group ~from_t ~until ~interval ~bytes =
  let sim = scenario.Scenario.sim in
  let rec tick () =
    if Engine.Time.compare (Engine.Sim.now sim) until < 0 then begin
      Host_stack.send_data host ~group ~bytes;
      ignore (Engine.Sim.schedule_after ~category:"traffic" sim interval tick)
    end
  in
  ignore (Engine.Sim.schedule_at ~category:"traffic" sim from_t tick)

let at scenario time f = ignore (Engine.Sim.schedule_at ~category:"traffic" scenario.Scenario.sim time f)
