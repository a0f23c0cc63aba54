"""How a session ends when it cannot finish, and the exit code of each end.

`SessionAborted` is the one exception for a protocol failure, malformed or
out-of-range peer input included (exit 3); `AuthAlarm` marks a failed or
malformed authentication tag (exit 4). Configuration errors are aborts with
exit 2.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_AUTH_ALARM = 4


class SessionAborted(RuntimeError):
    def __init__(self, message: str, exit_code: int = EXIT_ABORT):
        super().__init__(message)
        self.exit_code = exit_code


class AuthAlarm(SessionAborted):
    def __init__(self, message: str):
        super().__init__(message, EXIT_AUTH_ALARM)
