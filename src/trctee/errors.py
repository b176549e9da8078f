"""The root of every error trctee raises, and how each one is reported."""


class TrcteeError(Exception):
    """Base of every trctee error.  Each class states its own report and
    subclasses inherit it: ``token`` is the scenario outcome of a step that
    fails with it (``None`` means ``error:<ClassName>``), and ``exit_code``
    is the CLI's exit code when a subcommand fails with it."""

    token: str | None = None
    exit_code = 1
