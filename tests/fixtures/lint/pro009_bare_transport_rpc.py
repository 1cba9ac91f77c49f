# Golden fixture: PRO009 — a transport connect bypassing the retry wrapper.
import socket


def dial(host, port):
    return socket.create_connection((host, port))
