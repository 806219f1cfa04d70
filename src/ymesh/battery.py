"""The check battery over the zoo: its jobs, the windows that ``ymesh verify
all`` and the acceptance sweep grow for them, and the checks run on them."""

from .fractal import bound_check, genericity_audit
from .mesh import (check_menelaus, check_relations, generate_1d, generate_window,
                   step_1d, step_backward, step_forward)
from .pins import d_of_s
from .quiver import min_qs_size, verify_period_one
from .yvars import check_eqmain
from .zoo import ZOO, zoo_pin


def dims(pin):
    """The admissible dimensions {1, 2, min(3, D), D} of the pin, D = D(S)."""
    D = d_of_s(pin)
    return sorted({1, 2, min(3, D), D} & set(range(1, D + 1)))


def jobs():
    """(name, dim) of every zoo pin, by name, and each of its ``dims``."""
    return [(name, dim) for name in sorted(ZOO) for dim in dims(zoo_pin(name))]


def columns(pin):
    """The window width: 4 (l + 2), plus 8 per column the pin spans."""
    xs = [p[0] for p in pin.points]
    return 4 * (pin.l + 2) + 8 * (max(xs) - min(xs))


def grow(pin, dim, seed):
    """(window, draws): the window generated at ``columns(pin)`` and grown
    pin.l + 1 rows forward, which keeps every generated point, and the
    number of draws its generation took."""
    if dim == 1:
        w, step = generate_1d(pin, 0, columns(pin), seed=seed), step_1d
    else:
        w, step = generate_window(pin, dim, 0, columns(pin), seed=seed), step_forward
    draws = w.draws
    for _ in range(pin.l + 1):
        w = step(w)
    return w, draws


def check(window, counts):
    """Run the checks on a grown window, recording each one's counts in
    counts as it passes; the first failure raises.  The six-point relation
    is checked at every D, the rest at D >= 2.  Period one is checked at the
    smallest n the quiver admits, but at least 7."""
    counts["menelaus"] = check_menelaus(window)
    if window.dim == 1:
        return
    counts["relations"] = check_relations(window)
    back = step_backward(step_forward(window))
    common = [k for k in window.points if k in back.points]
    if not (common and all(back.points[k] == window.points[k] for k in common)):
        raise AssertionError("forward/backward inverse check")
    counts["inverse_common_points"] = len(common)
    counts["eqmain"] = check_eqmain(window)
    genericity = genericity_audit(window, 2)
    bound_check(window, 2)
    counts["genericity_2"] = genericity
    n = max(7, min_qs_size(window.pin))
    verify_period_one(window.pin, n)
    counts["period_one_n"] = n
