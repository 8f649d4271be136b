"""The minimal HTTP layer: parsing, limits, determinism."""

import asyncio
import json

import pytest

from repro.serve.http import (
    MAX_HEADER_BYTES,
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    Response,
    json_response,
    read_request,
)


def parse(raw: bytes) -> Request | None:
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(main())


class TestReadRequest:
    def test_simple_get(self):
        req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/healthz"
        assert req.headers["host"] == "x"
        assert req.body == b""
        assert req.keep_alive

    def test_post_with_body(self):
        body = b'{"arch":"x"}'
        raw = (
            b"POST /query HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        req = parse(raw)
        assert req.method == "POST"
        assert req.body == body

    def test_query_string_stripped(self):
        req = parse(b"GET /statz?verbose=1 HTTP/1.1\r\n\r\n")
        assert req.path == "/statz"

    def test_connection_close_opts_out_of_keepalive(self):
        req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive

    def test_eof_before_any_bytes_is_none(self):
        assert parse(b"") is None

    def test_malformed_request_line_is_400(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"GARBAGE\r\n\r\n")
        assert err.value.status == 400

    def test_header_without_colon_is_400(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n")
        assert err.value.status == 400

    def test_oversized_headers_are_431(self):
        filler = b"X-Pad: " + b"a" * 4000 + b"\r\n"
        raw = (
            b"GET / HTTP/1.1\r\n"
            + filler * (MAX_HEADER_BYTES // 4000 + 2)
            + b"\r\n"
        )
        with pytest.raises(ProtocolError) as err:
            parse(raw)
        assert err.value.status == 431

    def test_overlong_request_line_is_431(self):
        raw = b"GET /" + b"a" * (100 * 1024) + b" HTTP/1.1\r\n\r\n"
        with pytest.raises(ProtocolError) as err:
            parse(raw)
        assert err.value.status == 431

    def test_overlong_header_line_is_431(self):
        raw = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (100 * 1024) + b"\r\n\r\n"
        with pytest.raises(ProtocolError) as err:
            parse(raw)
        assert err.value.status == 431

    def test_chunked_encoding_is_501(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert err.value.status == 501

    def test_invalid_content_length_is_400(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert err.value.status == 400
        with pytest.raises(ProtocolError) as err:
            parse(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert err.value.status == 400

    def test_oversized_body_is_413(self):
        raw = (
            b"POST / HTTP/1.1\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
        with pytest.raises(ProtocolError) as err:
            parse(raw)
        assert err.value.status == 413

    def test_truncated_body_is_400(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
        with pytest.raises(ProtocolError) as err:
            parse(raw)
        assert err.value.status == 400


class TestRequestJson:
    def test_empty_body_is_empty_object(self):
        assert Request("POST", "/", {}).json() == {}

    def test_non_object_body_is_400(self):
        req = Request("POST", "/", {}, body=b"[1, 2]")
        with pytest.raises(ProtocolError) as err:
            req.json()
        assert err.value.status == 400

    def test_invalid_json_is_400(self):
        req = Request("POST", "/", {}, body=b"{nope")
        with pytest.raises(ProtocolError) as err:
            req.json()
        assert err.value.status == 400


class TestResponse:
    def test_render_has_length_and_connection(self):
        raw = Response(200, body=b"{}").render(keep_alive=True)
        assert b"Content-Length: 2" in raw
        assert b"Connection: keep-alive" in raw
        raw = Response(200, body=b"{}").render(keep_alive=False)
        assert b"Connection: close" in raw

    def test_json_response_bytes_are_deterministic(self):
        a = json_response(200, {"b": 1, "a": 2})
        b = json_response(200, {"a": 2, "b": 1})
        assert a.body == b.body == b'{"a":2,"b":1}'

    def test_extra_headers_rendered(self):
        raw = json_response(429, {}, headers={"Retry-After": "2"}).render()
        assert b"Retry-After: 2" in raw

    def test_body_round_trips(self):
        response = json_response(200, {"x": [1.5, None, "s"]})
        assert json.loads(response.body) == {"x": [1.5, None, "s"]}
