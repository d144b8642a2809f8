"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input exits with 2, a failure
during an otherwise valid computation exits with 3.
"""

MAX_LISTED = 8  # cap item listings in messages


def listed(items: list, total: int | None = None) -> str:
    total = len(items) if total is None else total
    head = ", ".join(str(i) for i in items[:MAX_LISTED])
    if total > MAX_LISTED:
        head += f", ... ({total} total)"
    return head


class InputError(ValueError):
    """Invalid or inconsistent user input (weather, prices, config, raster)."""


class ComputationError(RuntimeError):
    """A simulation step failed after inputs passed validation."""
