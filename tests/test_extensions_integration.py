"""Integration tests for the response latency semantics."""


class TestLatencySemantics:
    def test_wall_seconds_populated(self, sirius_pipeline, input_set):
        response = sirius_pipeline.process(input_set.voice_commands[0])
        assert response.wall_seconds > 0
        assert response.latency == response.wall_seconds

    def test_wall_at_least_service_sum_when_serial(self, sirius_pipeline, input_set):
        # By construction, with no tolerance: the wall bracket opens before
        # and closes after every stage bracket, stage seconds are clock
        # brackets inside it on the same clock, and a serial walk
        # runs its stages one after another.
        for query in (input_set.voice_queries[0], input_set.voice_image_queries[0]):
            response = sirius_pipeline.process(query)
            assert len(response.service_seconds) >= 2
            for seconds in response.service_seconds.values():
                assert response.wall_seconds >= seconds
            assert response.wall_seconds >= sum(response.service_seconds.values())
