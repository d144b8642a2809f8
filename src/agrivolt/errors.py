"""The exception type shared across the package: the CLI exits with 2 on
:class:`InputError` and with 3, a failed computation, on any other exception."""

MAX_LISTED = 8  # cap item listings in messages


def listed(items: list, total: int | None = None) -> str:
    total = len(items) if total is None else total
    head = ", ".join(str(i) for i in items[:MAX_LISTED])
    if total > MAX_LISTED:
        head += f", ... ({total} total)"
    return head


class InputError(ValueError):
    """Invalid or inconsistent user input (weather, prices, config, raster)."""
