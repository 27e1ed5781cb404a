"""Time one cold set-up in this fresh interpreter and print it as JSON.

Usage: python3 perfbench/setup_probe.py <src-dir> <workload>

Set-up is what a user of the package pays before the first useful result:
importing ``apf_rcbf``, loading the workload's scenario and configuration, and
the first control call (which compiles the kernels on a compiled backend).
The measuring process scales these times by reference children run just
before and after this one (``reference.py``).
"""

import json
import sys
import time


def main(src, workload):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import apf_rcbf as ar

    t1 = time.perf_counter()
    from workloads import load_inputs

    scenario, controllers, x0 = load_inputs(ar, workload)
    t2 = time.perf_counter()
    _, spec = controllers[0]
    if spec.kind == "generalized":
        ar.generalized_control(x0, scenario, spec.sigma_sel, spec.gamma_sel)
    else:
        ar.apf_control(x0, scenario)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                      "first_call_s": t3 - t2, "setup_s": t3 - t0,
                      "module": ar.__file__}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
