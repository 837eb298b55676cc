"""Service-envelope construction sites for the SC603 fixture."""


class ServiceRequest:
    """Stand-in envelope (constructor name is what the analyzer keys on)."""

    def __init__(self, payload, query=None, trace=None):
        self.payload = payload
        self.query = query
        self.trace = trace


class StageOutcome:
    """Stand-in for the envelope a stage's result crosses the pipe in."""

    def __init__(self, payload=None, error=None, spans=()):
        self.payload = payload
        self.error = error
        self.spans = spans


def lazy_payload_request(frames):
    """SC603 true positive: a generator expression stored in an envelope."""
    payload = (frame * 2 for frame in frames)
    return ServiceRequest(payload=payload)


def callback_request(handler_args):
    """SC603 true positive: a lambda rides the envelope across backends."""
    return ServiceRequest(payload=lambda: handler_args)


def handle_request(path):
    """SC603 true positive: an open file handle stored in an envelope."""
    return ServiceRequest(payload=open(path))


def plain_request(frames):
    """Near-miss: materialized list payloads pickle everywhere."""
    payload = [frame * 2 for frame in frames]
    return ServiceRequest(payload=payload)


def streamed_outcome(rows):
    """SC603 true positive: a generator rides the outcome back to the parent."""
    return StageOutcome(payload=(row for row in rows))


def finished_outcome(rows, spans):
    """Near-miss: a materialized payload and a tuple of spans pickle."""
    return StageOutcome(payload=list(rows), spans=tuple(spans))
