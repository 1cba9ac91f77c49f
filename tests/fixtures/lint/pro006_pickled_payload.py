# Golden fixture: PRO006 — pickle or marshal used for worker payloads.
import marshal
import pickle


def ship(payload):
    return pickle.dumps(payload)


def ship_code(code):
    return marshal.dumps(code)
